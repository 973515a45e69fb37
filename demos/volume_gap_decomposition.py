"""
The generalized-variance gap and its explicit decomposition
===========================================================

For any number of observables the gap between the covariance Gram
determinant and the metric Gram determinant can be rebuilt, by Cauchy-Binet,
as a sum of f-dependent nonnegative weights against f-independent squared
minors of the eigenframe coordinates; here for one to four observables on a
dim-3 state.  For evenly many observables the covariance determinant also
dominates the classical commutator bound, tying the gap to the usual
determinant-form uncertainty relation.
"""

import math

import numpy as np

from qfivol import DensityMatrix, GramSpec, regular_builtins, volume_gap
from qfivol.oracles import gap_from_decomposition

rng = np.random.default_rng(11)
dim = 3

g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
m = g @ g.conj().T
state = DensityMatrix(m / np.trace(m).real)


def hermitian():
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (h + h.conj().T) / 2


observables = tuple(hermitian() for _ in range(4))

print("four random observables on a random faithful state, dim 3")
for n in (1, 2, 3, 4):
    print(f"\n  {n} observable(s)")
    header = f"  {'function':<10} {'det(cov)':>12} {'det(qfi)':>12} {'gap':>12} {'sum':>12}"
    if n % 2 == 0:
        header += f" {'robertson':>12}"
    print(header)
    for f in regular_builtins():
        spec = GramSpec(state, observables[:n], f)
        report = volume_gap(spec)
        line = (
            f"  {f.fid:<10} {report.cov_det:>12.8f} {report.qfi_det:>12.8f} "
            f"{report.gap:>12.8f} {gap_from_decomposition(spec):>12.8f}"
        )
        if n % 2 == 0:
            line += f" {report.robertson_det:>12.8f}"
        print(line)

print()
print("volumes shrink as the tilde transform grows (three real observables):")
real_state = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
real_obs = tuple((h + h.T) / 2 for h in rng.standard_normal((3, dim, dim)))
for f in regular_builtins():
    v = math.sqrt(max(0.0, volume_gap(GramSpec(real_state, real_obs, f)).qfi_det))
    print(f"  {f.fid:<10} V = {v:.8f}")
