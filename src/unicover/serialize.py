"""Text and JSON formats.

Graph text format: first line "n m", then m lines "u v p/q [mult]" with
0-based endpoints and an exact rational weight; a multiplicity k expands to k
parallel edges.  Node-weight files hold one rational per line.  JSON carries
every rational as a lowest-terms string "p/q" so no consumer ever rounds.

One writer, dumps, lays out every document: compact JSON on one line,
keys sorted, ASCII only, with a final newline.  It is one json.dumps call,
which runs the standard library's C encoder.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .graph import Cut, Edge, EdgeVector, GraphError, Multigraph, NodeWeights
from .decompose import ConvexCombination, Term
from .lp import LpResult
from .cyclecover import CycleCoverResult
from .covers import Certificate
from .approx import ApproxResult


# What each kind's terms are: spanning trees, connectors, or connectors
# crossing every 2-edge cut of the target's support an even number of times.
DECOMPOSITION_KINDS = ("trees", "connectors", "even2cut")


class ParseError(GraphError):
    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def frac_str(v: Fraction) -> str:
    if type(v) is not int and not isinstance(v, Fraction):
        v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def parse_frac(text: str, line: Optional[int] = None) -> Fraction:
    if not isinstance(text, str):
        raise ParseError(f"bad rational {text!r}", line)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text.strip()!r}", line)


@contextmanager
def _fields(what: str) -> Iterator[None]:
    """Turn a missing or mistyped JSON field into a ParseError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad {what} object: {exc}")


def _int(v: object) -> int:
    """A stored int field, which must be a JSON integer: a float, a string
    or a bool raises ValueError, a ParseError under _fields."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


def _key(k: str) -> int:
    """An object key, which must be the decimal string of its id."""
    v = int(k)
    if str(v) != k:
        raise ValueError(f"key {k!r} is not the decimal string of an id")
    return v


# ---------------------------------------------------------------------------
# Text formats


def graph_to_text(G: Multigraph) -> str:
    lines = [f"{G.n} {G.m}"]
    for e in sorted(G.edges, key=lambda e: e.id):
        lines.append(f"{e.u} {e.v} {frac_str(e.weight)}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Multigraph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'n m'", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must be two integers", 1)
    edges: List[Edge] = []
    row = 0
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) not in (3, 4):
            raise ParseError("edge line must be 'u v p/q [mult]'", ln)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("endpoints must be integers", ln)
        w = parse_frac(parts[2], ln)
        mult = 1
        if len(parts) == 4:
            try:
                mult = int(parts[3])
            except ValueError:
                raise ParseError("multiplicity must be an integer", ln)
            if mult < 1:
                raise ParseError("multiplicity must be positive", ln)
        for _ in range(mult):
            edges.append(Edge(u, v, w, row))
            row += 1
    if row != m:
        raise ParseError(f"expected {m} edges, found {row}")
    try:
        return Multigraph(n, tuple(edges))
    except GraphError as exc:
        raise ParseError(str(exc))


def weights_from_text(text: str, n: Optional[int] = None) -> NodeWeights:
    values = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            values.append(parse_frac(raw, ln))
    if n is not None and len(values) != n:
        raise ParseError(f"expected {n} node weights, found {len(values)}")
    try:
        return NodeWeights(tuple(values))
    except GraphError as exc:
        raise ParseError(str(exc))


# ---------------------------------------------------------------------------
# JSON


def vector_to_json(x: EdgeVector) -> Dict[str, str]:
    return {str(eid): frac_str(v) for eid, v in sorted(x.items())}


def vector_from_json(obj: Dict[str, str]) -> EdgeVector:
    return {_key(k): parse_frac(v) for k, v in obj.items()}


def _edge_set(ids: List[int], field: str) -> FrozenSet[int]:
    """A stored cut's edge ids, read as a list so a repeat is caught."""
    ids = tuple(map(_int, ids))
    if len(set(ids)) != len(ids):
        raise ValueError(f"{field} repeats an edge id in {list(ids)}")
    return frozenset(ids)


def _edge_pairs(pairs: List[List[int]], field: str) -> Tuple[Tuple[int, int], ...]:
    """Stored (edge id, multiplicity) pairs; a repeated id is caught as in
    _edge_set, so no two readers of the pairs can disagree."""
    pairs = tuple((_int(eid), _int(m)) for eid, m in pairs)
    _edge_set([eid for eid, _ in pairs], field)
    return pairs


def graph_to_json(G: Multigraph) -> dict:
    return {
        "n": G.n,
        "edges": [[e.u, e.v, frac_str(e.weight), e.id]
                  for e in sorted(G.edges, key=lambda e: e.id)],
    }


def graph_from_json(obj: dict) -> Multigraph:
    with _fields("graph"):
        edges = tuple(Edge(_int(u), _int(v), parse_frac(w), _int(eid))
                      for u, v, w, eid in obj["edges"])
        return Multigraph(_int(obj["n"]), edges)


def combination_to_json(comb: ConvexCombination) -> dict:
    return {
        "relation": comb.relation,
        "target": {str(eid): frac_str(v) for eid, v in comb.target},
        "terms": [{
            "lambda": frac_str(t.coefficient),
            "edges": [[eid, m] for eid, m in t.edges],
            "classes": sorted(t.labels),
        } for t in comb.terms],
    }


def combination_from_json(obj: dict) -> ConvexCombination:
    with _fields("combination"):
        terms = tuple(
            Term(parse_frac(t["lambda"]),
                 _edge_pairs(t["edges"], f"terms[{i}].edges"),
                 frozenset(t.get("classes", ())))
            for i, t in enumerate(obj["terms"]))
        target = tuple(sorted(vector_from_json(obj["target"]).items()))
        return ConvexCombination(terms, target, obj["relation"])


def lp_result_to_json(G: Multigraph, res: LpResult) -> dict:
    return {
        "type": "lp-result",
        "graph": graph_to_json(G),
        "value": frac_str(res.value),
        "x": vector_to_json(res.x),
        "cuts": [{"shore": list(c.shore), "edges": sorted(c.edge_ids), "y": frac_str(y)}
                 for c, y in zip(res.cuts, res.duals)],
        "separation_rounds": res.separation_rounds,
    }


def lp_result_from_json(obj: dict) -> Tuple[Multigraph, LpResult]:
    with _fields("lp-result"):
        G = graph_from_json(obj["graph"])
        res = LpResult(
            value=parse_frac(obj["value"]),
            x=vector_from_json(obj["x"]),
            cuts=tuple(Cut(tuple(map(_int, c["shore"])),
                           _edge_set(c["edges"], f"cuts[{i}].edges"))
                       for i, c in enumerate(obj["cuts"])),
            separation_rounds=_int(obj["separation_rounds"]),
            duals=tuple(parse_frac(c["y"]) for c in obj["cuts"]),
        )
        return G, res


def cycle_cover_to_json(G: Multigraph, res: CycleCoverResult) -> dict:
    return {
        "type": "cycle-cover",
        "graph": graph_to_json(G),
        "cover": list(res.cover),
        "cycles": [list(c) for c in res.cycles],
        "matching": list(res.matching),
        "intra_cycle": list(res.intra_cycle),
        "cross_cycle": list(res.cross_cycle),
        "covered_cuts": [[sorted(ids), count] for ids, count in res.covered_cuts],
    }


def cycle_cover_from_json(obj: dict) -> Tuple[Multigraph, CycleCoverResult]:
    def ids(key: str) -> Tuple[int, ...]:
        return tuple(map(_int, obj[key]))

    with _fields("cycle-cover"):
        G = graph_from_json(obj["graph"])
        res = CycleCoverResult(
            cover=ids("cover"),
            cycles=tuple(tuple(map(_int, c)) for c in obj["cycles"]),
            matching=ids("matching"),
            intra_cycle=ids("intra_cycle"),
            cross_cycle=ids("cross_cycle"),
            covered_cuts=tuple((_edge_set(cut, f"covered_cuts[{i}]"), _int(count))
                               for i, (cut, count) in enumerate(obj["covered_cuts"])),
        )
        return G, res


def decomposition_to_json(G: Multigraph, comb: ConvexCombination, kind: str) -> dict:
    return {
        "type": "decomposition",
        "kind": kind,
        "graph": graph_to_json(G),
        "combination": combination_to_json(comb),
    }


def decomposition_from_json(obj: dict) -> Tuple[Multigraph, Tuple[str, ConvexCombination]]:
    """The graph, and the decomposition's kind with its combination."""
    with _fields("decomposition"):
        kind = obj["kind"]
        if kind not in DECOMPOSITION_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        return graph_from_json(obj["graph"]), (kind, combination_from_json(obj["combination"]))


def certificate_to_json(G: Multigraph, cert: Certificate) -> dict:
    return {
        "type": "uniform-cover-certificate",
        "graph": graph_to_json(G),
        "variant": cert.variant,
        "profile": cert.profile,
        "alpha": frac_str(cert.alpha),
        "object_class": cert.object_class,
        "combination": combination_to_json(cert.combination),
        "slack": {str(eid): frac_str(v) for eid, v in cert.slack},
        "max_multiplicity": cert.max_multiplicity,
        "metadata": {k: v for k, v in cert.metadata},
    }


def certificate_from_json(obj: dict) -> Tuple[Multigraph, Certificate]:
    with _fields("certificate"):
        G = graph_from_json(obj["graph"])
        cert = Certificate(
            variant=obj["variant"],
            profile=obj["profile"],
            alpha=parse_frac(obj["alpha"]),
            object_class=obj["object_class"],
            combination=combination_from_json(obj["combination"]),
            slack=tuple(sorted(vector_from_json(obj["slack"]).items())),
            max_multiplicity=_int(obj["max_multiplicity"]),
            metadata=tuple(sorted(obj.get("metadata", {}).items())),
        )
        return G, cert


def approx_to_json(G: Multigraph, res: ApproxResult) -> dict:
    out = {
        "type": "approx-result",
        "graph": graph_to_json(G),
        "algorithm": res.algorithm,
        "solution": [[eid, m] for eid, m in res.solution],
        "weight": frac_str(res.weight),
        "lower_bound": frac_str(res.lower_bound),
        "ratio": frac_str(res.ratio),
        "object_class": res.object_class,
        "x": vector_to_json(res.x),
        "dual": [[list(shore), frac_str(y)] for shore, y in res.dual],
    }
    if res.beta is not None:
        out["beta"] = frac_str(res.beta)
    if res.profile is not None:
        out["profile"] = res.profile
    return out


def approx_from_json(obj: dict) -> Tuple[Multigraph, ApproxResult]:
    with _fields("approx"):
        G = graph_from_json(obj["graph"])
        res = ApproxResult(
            algorithm=obj["algorithm"],
            solution=_edge_pairs(obj["solution"], "solution"),
            weight=parse_frac(obj["weight"]),
            lower_bound=parse_frac(obj["lower_bound"]),
            ratio=parse_frac(obj["ratio"]),
            object_class=obj["object_class"],
            x=vector_from_json(obj["x"]),
            dual=tuple((tuple(map(_int, shore)), parse_frac(y))
                       for shore, y in obj["dual"]),
            beta=parse_frac(obj["beta"]) if "beta" in obj else None,
            profile=obj.get("profile"),
        )
        return G, res


class EncodeError(GraphError, TypeError):
    """A value of a type that no document holds, met by dumps: a TypeError,
    as json.dumps raises, and a library error, which the CLI reports with
    exit code 2."""


def _refuse(v: object) -> object:
    raise EncodeError(f"{type(v).__name__} value {v!r} is not written to JSON")


def dumps(obj: dict) -> str:
    """obj as compact JSON with sorted keys and a final newline.  A value
    JSON cannot hold (a Fraction, a set) raises EncodeError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_refuse) + "\n"


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}", exc.lineno)
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    return obj
