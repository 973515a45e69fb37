"""In-memory call tracing of qfivol's public functions, applied from outside.

A ``Tracer`` rebinds every attribute of the package's loaded modules that
refers to one of its target functions -- the callers' namespaces, such as
``qfivol.sweep.mean_table`` next to ``qfivol.monotone.mean_table`` -- to a
wrapper that records a span, and puts the originals back on exit.  Nothing in
the package itself changes.  Spans stay in a list until the benchmark writes
them out; each is ``[name, start, end, parent span index or -1, op id]``.

Spans are kept on one stack, so calls must come from a single thread of this
process; work done in worker processes is out of reach.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

TRACED_MARK = "__bench_traced__"


class Tracer:
    """Context manager that installs span-recording wrappers.

    ``targets`` maps a span name to the function object to wrap.  Ops group
    spans: every span opened inside ``with tracer.op(kind)`` carries that op's
    id, and ``op_kinds[id]`` is its kind.
    """

    def __init__(self, targets, package="qfivol", clock=time.perf_counter):
        self.targets = dict(targets)
        self.package = package
        self.clock = clock
        self.spans = []
        self.op_kinds = []
        self._stack = []
        self._op = -1
        self._patched = []

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def __enter__(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        by_id = {id(fn): name for name, fn in self.targets.items()}
        wrappers = {}
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is None or value is not self.targets[name]:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                setattr(module, attr, wrappers[name])
                self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc_info):
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)
        return False

    def _open(self, name):
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def _close(self, span):
        span[2] = self.clock()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        setattr(traced, TRACED_MARK, True)
        return traced

    @contextmanager
    def op(self, kind):
        """Group the spans opened inside the block under one new op id."""
        previous = self._op
        self.op_kinds.append(kind)
        self._op = len(self.op_kinds) - 1
        span = self._open("op." + kind)
        try:
            yield
        finally:
            self._close(span)
            self._op = previous


def installed_wrappers(package="qfivol"):
    """``module.attr`` names in the package still bound to a tracing wrapper."""
    prefix = package + "."
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == package or name.startswith(prefix)):
            continue
        for attr, value in vars(module).items():
            if getattr(value, TRACED_MARK, False):
                found.append(f"{name}.{attr}")
    return found


def assert_untraced(package="qfivol"):
    """Raise if any tracing wrapper is installed; called before untraced timing."""
    found = installed_wrappers(package)
    if found:
        raise RuntimeError("tracing wrappers still installed: " + ", ".join(found))


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        clipped = sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[index]
        )
        for lo, hi in clipped:
            if hi > cursor:
                covered += hi - max(lo, cursor)
                cursor = hi
        out.append(end - start - covered)
    return out


def totals_by_op_kind(spans, op_kinds):
    """``{(span name, op kind): [self seconds, calls]}`` over all spans."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        kind = op_kinds[span[4]] if span[4] >= 0 else None
        entry = totals.setdefault((span[0], kind), [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return totals
