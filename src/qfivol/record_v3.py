"""The version-3 record: its evaluation kernel, thresholds and line format.

Every version-3 line a sweep writes, and every one replay recomputes, comes
from this module: evaluate_batch gives the Grams, determinants and verdicts
of a stack of samples, and _templates with _format_batch print them.  For
observables A_1..A_N and a regular function f it compares the covariance
Gram {Cov(A_h, A_j)} with the metric-bound Gram {Cov(A_h, A_j) - sum
m_tilde(lam_u, lam_v) Re{a_uv b_vu}}, whose determinant equals that of the
scaled commutator inner products (see qfivol.volumes for the proofs that the
gap is nonnegative for every N).

Its function-dependent work is one pass: one mean_table call for the tilde
tables of all functions, read from monotone.tilde's generic formula (none
without functions), and one (1 + F, B, n, n) Gram array that det_small reads
as it is.  Its dependence flag thresholds the smallest singular value of the
observables' real coordinates: a Gram-determinant screen decides most
samples and a stacked SVD the rest, with the flags the SVD alone would give
(see _dependent).  Its verdicts use absolute thresholds.

Nothing here may change a bit of its output: version-3 records replay bit
for bit, and tests/data/kernel_digests.json pins every BatchReport field.
It imports only qfivol.matrices and qfivol.monotone, and the helpers it
reads there (the matrices stacks, monotone.tilde and mean_table) must stay
bit-stable too.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .matrices import (
    det_small,
    expectation_stack,
    frame_stack,
    pair_indices,
    pair_slots,
    real_coordinates,
    trace_product,
)
from .monotone import mean_table, tilde

MAIN_INEQUALITY_SLACK = 1e-10
EQUALITY_RTOL = 1e-8
DEPENDENCE_SV_TOL = 1e-8
# safety factor on DEPENDENCE_SV_TOL before the Gram screen clears a sample
_SCREEN_MARGIN = 1e3
MONOTONICITY_SLACK = 1e-10

# the format of the records a sweep writes, the "version" each starts with,
# and the only one replay reads
RECORD_VERSION = 3

RECORD_FIELDS = (
    "index",
    "seed",
    "ensemble",
    "dim",
    "n",
    "function",
    "cov_det",
    "qfi_det",
    "gap",
    "robertson_det",
    "main_holds",
    "dependent",
    "equality_consistent",
    "candidate",
)


@dataclass(frozen=True)
class BatchReport:
    """Kernel output for B samples and F functions.

    Arrays indexed by function lead with F, then B.  ``rank_deficient`` says
    that n exceeds commutator_rank, so every metric Gram in the batch is
    singular by theory and its volume order carries no information.
    """

    cov_gram: np.ndarray
    qfi_gram: np.ndarray
    cov_det: np.ndarray
    qfi_det: np.ndarray
    gap: np.ndarray
    scale: np.ndarray
    volume_qfi: np.ndarray
    robertson_det: np.ndarray | None
    dependent: np.ndarray
    main_holds: np.ndarray
    equality_consistent: np.ndarray
    rank_deficient: bool

    def violations(self, pairs) -> np.ndarray:
        """Per sample, how many (i, j) in ``pairs`` break volume_i >= volume_j."""
        count = np.zeros(self.cov_det.shape, dtype=int)
        if not self.rank_deficient:
            for i, j in pairs:
                count += self.volume_qfi[i] < self.volume_qfi[j] - MONOTONICITY_SLACK
        return count


def commutator_rank(dim: int, real: bool) -> int:
    """Most linearly independent commutators i[rho, A] there can be: in rho's
    eigenbasis their diagonal is zero, leaving d^2 - d real dimensions, or
    d(d-1)/2 when rho and every A are real symmetric."""
    return dim * (dim - 1) // 2 if real else dim * dim - dim


def _volume(det):
    # sqrt(max(0, det)) with Python's max semantics: -0.0 and NaN give 0.0
    return np.sqrt(np.where(det > 0.0, det, 0.0))


def evaluate_batch(rho, eigenvalues, eigenvectors, observables, functions) -> BatchReport:
    """The evaluation kernel: Grams, determinants and verdicts for a stack.

    ``rho`` and ``eigenvectors`` are (B, d, d) stacks and ``eigenvalues`` a
    (B, d) stack of validated states (see matrices.density_stack);
    ``observables`` is a (B, n, d, d) stack of exactly self-adjoint
    matrices; ``functions`` are regular.  Every per-sample result is
    bit-identical whatever the batch it came in.
    """
    n, dim = observables.shape[1], eigenvalues.shape[-1]
    real = not (np.iscomplexobj(rho) or np.iscomplexobj(observables))
    means = expectation_stack(rho, observables)
    frames = frame_stack(eigenvectors, observables, means)
    dependent = _dependent(real_coordinates(frames), commutator_rank(dim, real) + dim)
    tildes = tuple(tilde(f) for f in functions)
    grams = batched_grams(eigenvalues, frames, mean_table(tildes, eigenvalues) if tildes else ())
    robertson = _robertson(rho, observables) if n % 2 == 0 else None
    return _batch_report(grams, det_small(grams), robertson, dependent, n > commutator_rank(dim, real))


def _batch_report(grams, dets, robertson_det, dependent, rank_deficient) -> BatchReport:
    """The report of both kernels from their (1 + F, B, n, n) Grams, the
    covariance's first, and the determinants of those Grams: the gap, its
    scale max(1, |cov_det|), the metric volumes and the verdicts at this
    module's thresholds, beside the Robertson determinants (None for odd n)
    and the dependence flags the kernel computed."""
    cov_det, qfi_det = dets[0], dets[1:]
    gap = cov_det - qfi_det
    scale = np.where(np.abs(cov_det) > 1.0, np.abs(cov_det), 1.0)
    return BatchReport(
        cov_gram=grams[0],
        qfi_gram=grams[1:],
        cov_det=cov_det,
        qfi_det=qfi_det,
        gap=gap,
        scale=scale,
        volume_qfi=_volume(qfi_det),
        robertson_det=robertson_det,
        dependent=dependent,
        main_holds=gap >= -MAIN_INEQUALITY_SLACK * scale,
        equality_consistent=~dependent | (np.abs(gap) <= EQUALITY_RTOL * scale),
        rank_deficient=rank_deficient,
    )


def _dependent(x, span: int, screen=None, scale=None) -> np.ndarray:
    """Per sample, whether the smallest singular value of its (n, m) real
    coordinates X, as the stacked SVD computes it, is below DEPENDENCE_SV_TOL.

    X is ``x``, or x times ``scale`` (one factor per coordinate) where that is
    given.  The real coordinates are a Frobenius isometry of the centered
    observables, which lie in a ``span`` of d^2 dimensions, or d(d+1)/2 when
    the state and every observable are real symmetric, and centering leaves
    them rank <= span - 1.  So n >= span is dependent with no SVD (there the
    SVD's own value, about eps * sigma_max, would pass the threshold, and the
    SVD alone say "independent", once sigma_max exceeds ~1e8).  Otherwise a
    screen on the Gram G = X X^T clears the samples whose SVD verdict is
    certainly "independent" and the SVD decides the rest, which gives each
    sample its SVD flag whatever the batch.  ``screen`` is the (det G, trace
    G) pair of a caller that formed G already; without it G is x x^T, formed
    here.  The live kernel forms G as Y diag(w) Y^T, one weight row of its
    own product, with Y its unscaled coordinates, w = 1 on the diagonal
    coordinates and 2 on the pair ones, and scale = sqrt(w); only the
    samples the screen leaves are scaled, for the SVD.  The screen's bound
    (below) holds for that G as for x x^T: w is an exact power of two, so
    each y w y' is one rounding as x x' is, each entry of G is again a
    length-m dot product, and X = Y diag(sqrt(w)) is exact in the argument
    though no float holds it; the SVD's input fl(Y scale) differs from X by
    one rounding per entry, at most eps sqrt(T) in 2-norm, which adds 1 to
    p below and stays inside c.
    """
    n = x.shape[1]
    if n >= span:
        return np.ones(len(x), dtype=bool)
    if screen is None:
        g = x @ x.swapaxes(-1, -2)
        screen = det_small(g), g.diagonal(0, -2, -1).sum(-1)
    det, trace = screen
    # With G = X X^T (eigenvalues sigma^2, trace T), sigma_min^2 >=
    # det G / T^(n-1), since each other sigma^2 <= T.  The stacked SVD returns
    # the singular values of X + dX with |dX| <= p eps sigma_max <= p eps sqrt(T),
    # p a modest function of m <= 64 and n <= 8 (backward stability), so
    # sigma_min >= TOL + c eps sqrt(T) with c = 64 >= p makes it say
    # "independent"; squared, that asks at most 2 TOL^2 + 2 c^2 eps^2 T.  The
    # screen's own rounding adds to sigma^2, not to sigma: forming G
    # (length-m dot products) moves it by at most m eps T in 2-norm, det_small
    # by at most n^2 (n+1) 2^(n-2) eps T more (LU with partial pivoting:
    # growth <= 2^(n-1), entries <= T; the cofactors for n <= 3 do far
    # better), and a matrix moved by delta has its determinant moved by at most
    # (T + delta)^n - T^n ~ n delta T^(n-1) (Ipsen and Rehman, SIAM J. Matrix
    # Anal. Appl. 30, 762 (2008)), so the computed det G / T^(n-1) exceeds the
    # exact one by at most n delta.  Rounding T and the products compared is a
    # relative error under (n - 1)(m + n + 2) eps.  At n = 8, m = 64 all of it
    # is below 3e5 eps T, inside K eps T with K = 2^19, which holds
    # 2 c^2 eps^2 T many times over.  The margin of 1e3 on TOL leaves room for
    # a p far above c wherever 2 (margin TOL)^2 dominates the edge.  An
    # overflowed determinant clears nothing, nor does a zero trace (0 > 0).
    edge = 2 * (_SCREEN_MARGIN * DEPENDENCE_SV_TOL) ** 2 + 2**19 * np.finfo(np.float64).eps * trace
    rest = ~((det > edge * trace ** (n - 1)) & np.isfinite(det))
    if rest.any():
        rows = x[rest] if scale is None else x[rest] * scale
        rest[rest] = np.linalg.svd(rows, compute_uv=False)[:, -1] < DEPENDENCE_SV_TOL
    return rest


def batched_grams(eigenvalues, frames, tables):
    """One (1 + F, B, n, n) array: the covariance Grams with entries
    Cov(A_h, A_j), then per tilde mean table the metric-bound Grams with
    entries Corr_f(A_h, A_j).

    ``eigenvalues`` is (B, d), ``frames`` a (B, n, d, d) eigenframe stack and
    ``tables`` an (F, B, d, d) stack of tilde mean tables (or an empty
    sequence), reduced one at a time so that the largest temporary here is the
    (B, n(n+1)/2, d, d) overlap stack of all pairs h <= j.  Each entry sums
    its matrix's terms in the order a single ``np.sum`` uses, so it does not
    depend on the batch.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    weights = 0.5 * (lam[:, :, None] + lam[:, None, :])
    batch, n = frames.shape[:2]
    rows, cols = pair_indices(n)
    # formed in place: the (B, P, d, d) temporary this saves, P = n(n+1)/2,
    # offsets the (F, B, d, d) tables held meanwhile in the kernel's peak memory
    overlap = frames.take(rows, axis=1)
    overlap *= frames.take(cols, axis=1).swapaxes(-1, -2)
    overlap = np.real(overlap)
    sums = np.empty((1 + len(tables), batch, len(rows)))
    sums[0] = c = _entry_sums(weights[:, None] * overlap)
    for k, table in enumerate(tables, 1):
        sums[k] = c - _entry_sums(table[:, None] * overlap)
    return sums.take(pair_slots(n), axis=-1).reshape(*sums.shape[:-1], n, n)


def _entry_sums(x):
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1]).sum(axis=-1)


def _robertson(rho, observables) -> np.ndarray:
    """Robertson determinants of a (B, d, d) state stack and a (B, n, d, d)
    observable stack: entries -(i/2) Tr(rho [A_h, A_j]) = Im Tr(rho [A_h, A_j]) / 2,
    one stacked trace_product over the commutators of all pairs h < j."""
    n = observables.shape[1]
    rows, cols = pair_indices(n, 1)
    # take leaves the stacks C-contiguous, keeping per-pair trace bits (see trace_product)
    a, b = observables.take(rows, axis=1), observables.take(cols, axis=1)
    commutators = a @ b - b @ a
    states = np.repeat(rho[:, None], len(rows), axis=1)
    r = np.zeros((len(rho), n, n))
    r[:, rows, cols] = 0.5 * trace_product(states, commutators).imag
    r[:, cols, rows] = -r[:, rows, cols]
    return det_small(r)


@functools.lru_cache
def _templates(seed: int, ensemble: str, dim: int, n: int, fids: tuple) -> tuple:
    """Per function, 8 bytes %-templates of a whole line, indexed by the flag
    code 4 main_holds + 2 dependent + equality_consistent.  Each bakes in the
    record version, the fields every line of a sweep shares, the four JSON
    words (candidate is not main_holds), robertson_det's null for odd n and
    the trailing newline.  It leaves index, cov_det, qfi_det, gap and, for
    even n, robertson_det; cov_det and robertson_det are %s, formatted once
    per sample.  Floats print with 17 significant digits so they round-trip."""
    words, rob = ("false", "true"), "%s" if n % 2 == 0 else "null"
    return tuple(
        tuple(
            f'{{"version": {RECORD_VERSION}, "index": %d, "seed": {seed}, "ensemble": "{ensemble}", '
            f'"dim": {dim}, "n": {n}, "function": "{fid}", "cov_det": %s, "qfi_det": %.17g, '
            f'"gap": %.17g, "robertson_det": {rob}, "main_holds": {words[main]}, "dependent": '
            f'{words[dependent]}, "equality_consistent": {words[equal]}, "candidate": {words[not main]}}}\n'
            .encode()
            for main, dependent, equal in itertools.product((False, True), repeat=3)
        )
        for fid in fids
    )


def _format_batch(templates, indices, out: BatchReport) -> bytes:
    """The record lines of a kernel report as one bytes block, sample-major,
    then function: the templates its flags pick, joined, then one % over
    every line's values."""
    cov = [b"%.17g" % x for x in out.cov_det.tolist()]
    qfi, gap, functions = out.qfi_det.T.tolist(), out.gap.T.tolist(), range(len(templates))
    flags = zip(out.main_holds.T.tolist(), out.dependent.tolist(), out.equality_consistent.T.tolist())
    block = b"".join([templates[k][4 * m[k] + 2 * d + e[k]] for m, d, e in flags for k in functions])
    if out.robertson_det is None:
        rows = zip(indices, cov, qfi, gap)
        values = [x for i, c, q, g in rows for k in functions for x in (i, c, q[k], g[k])]
    else:
        rows = zip(indices, cov, qfi, gap, [b"%.17g" % x for x in out.robertson_det.tolist()])
        values = [x for i, c, q, g, r in rows for k in functions for x in (i, c, q[k], g[k], r)]
    return block % tuple(values)
