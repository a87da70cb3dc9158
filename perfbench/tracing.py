"""In-memory spans around the library's public functions, and their self times.

Tracing is installed from outside the library: each traced function is
wrapped, and the wrapper is bound in place of the original under every name
that holds it in the `fractal_spectra` package and its modules.  Rebinding
every holder matters because `from .linalg import generalized_sym_eig`
copies the binding into the importing module, and library code calls
through that copy.

A span is (id, name, start, end, parent id, op id, work).  Spans started on
threads the op spawned (`green_proxy` runs `char_det` on a thread pool) have
an empty stack of their own; their parent is the innermost span open on the
thread that installed the tracer, which is the op's thread.  Every span
carries the op id that was current when it started, so pool-thread spans are
attributed to their op, not to whatever their thread ran before.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, span name, work measure or None).  The work measure
# maps the call's arguments to a count recorded on the span.
TARGETS = (
    ("selfsim", "build_lattice", "selfsim.build_lattice", None),
    ("selfsim", "assemble_q", "selfsim.assemble", None),
    ("selfsim", "assemble_measure", "selfsim.assemble", None),
    ("linalg", "generalized_sym_eig", "linalg.eig", lambda q, b: len(b)),
    ("spectra", "level_spectrum", "spectra.level_spectrum", None),
    ("spectra", "neumann_spectrum", "spectra.neumann", None),
    ("spectra", "dirichlet_spectrum", "spectra.dirichlet", None),
    ("spectra", "nd_spectrum", "spectra.nd", None),
    ("spectra", "cluster_eigenvalues", "spectra.cluster", None),
    ("spectra", "dos_histogram", "spectra.dos_histogram", None),
    ("spectra", "green_proxy", "spectra.green_proxy", None),
    ("spectra", "char_det", "spectra.char_det", None),
    ("network", "trace_map", "network.trace_map", None),
    ("grassmann", "exp_eta", "grassmann.exp_eta", None),
    ("grassmann", "mul", "grassmann.mul", lambda x, y: len(x.coeffs) * len(y.coeffs)),
    ("grassmann", "reindex", "grassmann.reindex", None),
    ("grassmann", "interior_reduce", "grassmann.interior_reduce", None),
    ("grassmann", "reduced_product", "grassmann.reduced_product", None),
    ("grassmann", "renorm_lift", "grassmann.renorm_lift", None),
    ("grassmann", "_lift_plan", "grassmann.lift_plan", None),
    ("symplectic", "from_sym", "symplectic.from_sym", None),
    ("symplectic", "reduce_frame", "symplectic.reduce_frame", None),
    ("symplectic", "reduction_defect", "symplectic.reduction_defect", None),
    ("symplectic", "w_renorm", "symplectic.w_renorm", None),
    ("renorm", "t_map", "renorm.t_map", None),
    ("renorm", "g_map", "renorm.g_map", None),
)

PACKAGE = "fractal_spectra"


class Tracer:
    """Records spans while installed; `op` names the op new spans belong to."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = []
        self._restore = []

    def _stack(self):
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        owner = self._owner_stack
        return owner[-1] if owner else None

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            op = tracer.op
            amount = work(*args, **kwargs) if work is not None else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, op, amount))

        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of benchmark code on the owning thread."""
        sid = next(self._ids)
        parent = self._parent(self._owner_stack)
        op = self.op
        self._owner_stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._owner_stack.pop()
            self.spans.append((sid, name, start, end, parent, op, None))

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, attr, name, work in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapper = self._wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore = []

    def to_json(self):
        return [dict(zip(("id", "name", "start", "end", "parent", "op", "work"), s))
                for s in self.spans]


def by_op(spans):
    out = defaultdict(list)
    for s in spans:
        out[s[5]].append(s)
    return out


def _union(intervals):
    """Sorted disjoint union of (start, end) intervals."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _minus(a, b, holes):
    """Parts of [a, b] not covered by the disjoint sorted `holes`."""
    out = []
    for h0, h1 in holes:
        if h1 <= a or h0 >= b:
            continue
        if h0 > a:
            out.append((a, h0))
        a = max(a, h1)
    if a < b:
        out.append((a, b))
    return out


def self_times(spans):
    """Wall time per span name during which that name is the innermost open
    span: each span's interval minus its children's, unioned over the spans
    of one name so that concurrent pool-thread spans count once."""
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))
    pieces = defaultdict(list)
    for sid, name, start, end, *_ in spans:
        pieces[name].extend(_minus(start, end, _union(children[sid])))
    return {name: sum(b - a for a, b in _union(p)) for name, p in pieces.items()}


def inclusive_times(spans):
    """Wall time per span name covered by any span of that name, children
    included."""
    intervals = defaultdict(list)
    for s in spans:
        intervals[s[1]].append((s[2], s[3]))
    return {name: sum(b - a for a, b in _union(p)) for name, p in intervals.items()}


def work_counts(spans):
    """Per span name: number of calls and summed work."""
    calls = defaultdict(int)
    work = defaultdict(int)
    for s in spans:
        calls[s[1]] += 1
        if s[6] is not None:
            work[s[1]] += s[6]
    return calls, work
