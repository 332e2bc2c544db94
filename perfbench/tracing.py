"""Outside-in tracing of quivrep's public functions.

``from .linalg import rank`` copies the binding into the importing module,
so patching ``quivrep.linalg.rank`` alone would miss every caller in
``family``.  :func:`patch_everywhere` therefore replaces a function on
every ``quivrep`` module attribute (and class attribute) that holds it.

A :class:`Tracer` keeps one span per wrapped call in memory as
``(name, start_ns, end_ns, parent_index)``; self time is a span's duration
minus the durations of its direct children.  Nothing inside ``src/`` is
edited: spans are recorded only at the boundaries of the wrapped calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Span name -> (module, attribute path).  Names are fixed: BENCHMARK.json
# and later comparisons refer to them.
TARGETS = {
    "linalg.rank": ("quivrep.linalg", "rank"),
    "linalg.rref": ("quivrep.linalg", "rref"),
    "linalg.kernel_basis": ("quivrep.linalg", "kernel_basis"),
    "linalg.image_basis": ("quivrep.linalg", "image_basis"),
    "linalg.in_span": ("quivrep.linalg", "in_span"),
    "linalg.independent_subset": ("quivrep.linalg", "independent_subset"),
    "linalg.kron": ("quivrep.linalg", "kron"),
    "homology.intertwiner_matrix": ("quivrep.homology", "intertwiner_matrix"),
    "homology.cocycle_system": ("quivrep.homology", "cocycle_system"),
    "homology.coboundary_matrix": ("quivrep.homology", "coboundary_matrix"),
    "homology.hom_dim": ("quivrep.homology", "hom_dim"),
    "homology.cocycle_space": ("quivrep.homology", "cocycle_space"),
    "homology.coboundary_space": ("quivrep.homology", "coboundary_space"),
    "geometry.constrained_cocycles": ("quivrep.geometry", "constrained_cocycles"),
    "geometry.regularity_certificate": ("quivrep.geometry", "regularity_certificate"),
    "rep.middle_term": ("quivrep.rep", "middle_term"),
    "rep.conjugate": ("quivrep.rep", "conjugate"),
    "rep.direct_sum": ("quivrep.rep", "direct_sum"),
    "family.verify_family": ("quivrep.family", "verify_family"),
    "family.Family.decomposable_locus_member":
        ("quivrep.family", "Family.decomposable_locus_member"),
    "textio.parse_quiver": ("quivrep.textio", "parse_quiver"),
    "textio.parse_rep": ("quivrep.textio", "parse_rep"),
    "textio.serialize_quiver": ("quivrep.textio", "serialize_quiver"),
    "textio.serialize_rep": ("quivrep.textio", "serialize_rep"),
    "cli.main": ("quivrep.cli", "main"),
}

# Eliminations go through exactly these two entry points of linalg.
ELIMINATIONS = ("linalg.rank", "linalg.rref")


def _quivrep_holders():
    """Every loaded quivrep module, plus the classes defined in them."""
    holders = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "quivrep" or name.startswith("quivrep.")):
            continue
        holders.append(module)
        holders.extend(v for v in vars(module).values()
                       if isinstance(v, type) and v.__module__ == name)
    return holders


def resolve(module_name: str, path: str):
    obj = sys.modules[module_name]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def patch_everywhere(current, replacement) -> list:
    """Rebind every quivrep attribute that holds `current`; return undo records."""
    undo = []
    for holder in _quivrep_holders():
        for attr, value in list(vars(holder).items()):
            if value is current:
                setattr(holder, attr, replacement)
                undo.append((holder, attr, current))
    if not undo:
        raise RuntimeError(f"no quivrep binding holds {current!r}")
    return undo


def restore(undo: list) -> None:
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


class Tracer:
    """Spans and elimination-size counters around the TARGETS functions."""

    def __init__(self):
        self._undo = []
        self.bindings = Counter()  # span name -> module attributes rebound
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self.cells = 0
        self.max_cells = 0
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        eliminates = name in ELIMINATIONS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if eliminates:
                m = args[0]
                size = m.rows * m.cols
                tracer.cells += size
                if size > tracer.max_cells:
                    tracer.max_cells = size
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        for name, (module, path) in TARGETS.items():
            if module not in sys.modules:  # e.g. quivrep.cli outside the cli workload
                continue
            original = resolve(module, path)
            undo = patch_everywhere(original, self._wrap(name, original))
            self.bindings[name] = len(undo)
            self._undo.extend(undo)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- aggregation -----------------------------------------------------

    def counters(self) -> dict:
        """The exact, timing-free counts: calls per span name and cell sums."""
        calls = Counter(span[0] for span in self.spans)
        out = {f"{name}.calls": calls.get(name, 0) for name in TARGETS}
        out["linalg.cells"] = self.cells
        out["linalg.max_cells"] = self.max_cells
        return out

    def self_seconds(self) -> dict:
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = dict.fromkeys(TARGETS, 0)
        for (name, start, end, _), children in zip(self.spans, child_ns):
            out[name] += end - start - children
        return {name: ns / 1e9 for name, ns in out.items()}

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` made (transitively) inside an `ancestor` span."""
        spans = self.spans
        count = 0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            count += parent >= 0
        return count

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")
