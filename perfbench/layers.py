"""Span tracing of the library's layers, installed from outside the library.

A traced run wraps the public functions of each unicover module.  The
defining module's binding and every ``from .x import y`` re-binding in the
other loaded unicover modules are replaced, so calls between modules are
seen too.  Each call records a span (name, start, end, parent, op id) in
memory; self time is a span's duration minus that of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# layer -> public functions whose calls become spans named "<layer>.<function>".
# "Class.method" wraps the method on the class.
SPANS: Dict[str, Tuple[str, ...]] = {
    "graph": ("enumerate_cuts_upto", "validate_structure", "classify"),
    "simplex": ("Tableau.optimize", "solve_lp"),
    "lp": ("min_cut", "solve_subtour", "membership"),
    "decompose": ("caratheodory_reduce", "min_tjoin", "decompose_spanning_trees",
                  "decompose_tjoins", "decompose_one_covers", "decompose_connectors",
                  "wolsey_tours", "make_combination"),
    "connectors": ("even_2cut_connectors",),
    "cyclecover": ("find_covering_cycle_cover", "verify_contraction"),
    "covers": ("uniform_cover", "check_certificate"),
    "approx": ("tsp_7_5_node_weighted", "twoec_13_10_node_weighted",
               "twoec_beta", "tsp_beta"),
    "verify": ("verify_document",),
    "cli": ("main",),
    "families": ("random_cubic_3ec", "random_subcubic_2ec", "random_node_weights"),
}

# serialize is timed as two spans, whichever document function runs.
SERIALIZE: Dict[str, Tuple[str, ...]] = {
    "encode": ("certificate_to_json", "approx_to_json", "cycle_cover_to_json", "dumps"),
    "decode": ("loads", "certificate_from_json", "approx_from_json",
               "graph_from_json", "combination_from_json"),
}

SPAN_NAMES: Tuple[str, ...] = tuple(
    [f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns]
    + [f"serialize.{group}" for group in SERIALIZE])

# Spans that can run inside the verifier child (cli verify -> verify_document).
VERIFY_SPAN_NAMES: Tuple[str, ...] = (
    "cli.main", "verify.verify_document", "serialize.decode",
    "covers.check_certificate", "graph.classify", "graph.validate_structure",
    "graph.enumerate_cuts_upto", "lp.solve_subtour", "lp.min_cut", "lp.membership",
    "simplex.Tableau.optimize", "simplex.solve_lp",
)

# Spans that only run in the verifier child.
VERIFY_ONLY = ("cli.main", "verify.verify_document")

# Counts kept by the wrappers.
COUNTS: Tuple[str, ...] = (
    "graph.cuts_found", "simplex.columns", "lp.separation_rounds",
    "decompose.caratheodory_terms_in", "decompose.caratheodory_terms_out",
)
VERIFY_COUNTS = ("graph.cuts_found", "simplex.columns", "lp.separation_rounds")

MARK = "__perfbench_original__"


def _count_cuts(counts, args, result):
    counts["graph.cuts_found"] += len(result)


def _count_rounds(counts, args, result):
    counts["lp.separation_rounds"] += result.separation_rounds


def _count_terms(counts, args, result):
    counts["decompose.caratheodory_terms_in"] += len(args[0])
    counts["decompose.caratheodory_terms_out"] += len(result)


AFTER: Dict[str, Callable] = {
    "graph.enumerate_cuts_upto": _count_cuts,
    "lp.solve_subtour": _count_rounds,
    "decompose.caratheodory_reduce": _count_terms,
}


def library_modules() -> List[object]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "unicover" or name.startswith("unicover."))]


class Tracer:
    """In-memory spans and counts for one process's traced calls."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op id or None]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        after = AFTER.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _patch_function(self, original: Callable, wrapper: Callable) -> None:
        for module in library_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function in every loaded library module."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer in (*SPANS, "serialize"):
            importlib.import_module(f"unicover.{layer}")
        modules = {m.__name__: m for m in library_modules()}
        for layer, fns in SPANS.items():
            home = modules[f"unicover.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patched.append((cls, meth, original))
                    setattr(cls, meth, self._span_wrapper(name, original))
                else:
                    original = getattr(home, fn)
                    self._patch_function(original, self._span_wrapper(name, original))
        serialize = modules["unicover.serialize"]
        for group, fns in SERIALIZE.items():
            for fn in fns:
                original = getattr(serialize, fn)
                self._patch_function(original,
                                     self._span_wrapper(f"serialize.{group}", original))
        tableau = modules["unicover.simplex"].Tableau
        original = tableau.__dict__["add_column"]
        self._patched.append((tableau, "add_column", original))
        tableau.add_column = self._count_wrapper("simplex.columns", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------

    def summary(self) -> Dict[str, Tuple[float, int]]:
        """name -> (self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, List[float]] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += (end - start) - child[i]
            acc[1] += 1
        return {name: (v[0], int(v[1])) for name, v in out.items()}


def leftover_wrappers() -> List[str]:
    """Names of loaded library bindings that are still tracing wrappers."""
    found = []
    for module in library_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, MARK):
                        found.append(f"{module.__name__}.{attr}.{meth}")
    return found
