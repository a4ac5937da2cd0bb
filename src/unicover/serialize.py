"""Text and JSON formats.

Graph text format: first line "n m", then m lines "u v p/q [mult]" with
0-based endpoints and an exact rational weight; a multiplicity k expands to k
parallel edges.  Node-weight files hold one rational per line.

Each JSON document type is one table of fields, each of a kind (int,
rational, string, id-keyed map, edge-id set, ...), and one reader and one
writer walk the tables.  A rational is the lowest-terms string "p/q" that
frac_str writes, so no consumer ever rounds.  The readers take no default
and no other form: a missing or unknown field, a value of another JSON
type, a rational written otherwise ("2/4", " 2/3", "1", "1.0"), and a
repeated or unknown class label are each a ParseError (CLI exit code 2).

One writer, dumps, lays out every document: compact JSON on one line,
keys sorted, ASCII only, with a final newline.  It is one json.dumps call,
which runs the standard library's C encoder.
"""
from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .graph import LABELS, Cut, Edge, GraphError, Multigraph, NodeWeights
from .decompose import ConvexCombination, Term
from .lp import LpResult
from .cyclecover import CycleCoverResult
from .covers import Certificate
from .approx import ApproxResult

# A kind is a (read, write) pair: read takes a JSON value to the library's,
# or raises _FieldError, and write takes it back.
Kind = Tuple[Callable[[object], object], Callable[[object], object]]

# What a decomposition's terms are: spanning trees, connectors, or connectors
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
# JSON kinds


class _FieldError(ParseError):
    """A bad JSON value.  The message is its path, in the ".name" and "[i]"
    steps that tables and lists add on the way out, then what is wrong."""


def _read(kind: Kind, obj: object, what: str):
    try:
        return kind[0](obj)
    except _FieldError as exc:
        raise ParseError(f"bad {what}: {str(exc).lstrip('. ')}") from None


def _same(v: object) -> object:
    return v


def _sorted_items(d: Dict) -> Tuple[Tuple[object, object], ...]:
    return tuple(sorted(d.items()))


def _typed(t: type, what: str, names: Tuple[str, ...] = ()) -> Kind:
    """A JSON value of type t, and one of names if any are given."""
    def read(v: object) -> object:
        if type(v) is not t or (names and v not in names):
            raise _FieldError(f" {v!r} is not {what}")
        return v
    return read, _same


def _rational(v: object) -> Fraction:
    """The text frac_str writes: "p/q" with q > 0 and gcd(p, q) = 1."""
    if type(v) is str:
        p, _, q = v.partition("/")
        try:
            num, den = int(p), int(q)
        except ValueError:
            pass
        else:
            if den > 0 and f"{num}/{den}" == v:
                value = Fraction(num, den)
                if value.denominator == den:
                    return value
    raise _FieldError(f" {v!r} is not a rational p/q in lowest terms")


def _key(k: str) -> int:
    """An object key, which must be the decimal string of its id."""
    try:
        v = int(k)
    except ValueError:
        v = None
    if v is None or str(v) != k:
        raise _FieldError(f" has the key {k!r}, not the decimal string of an id")
    return v


def _locate(read: Callable, items: Iterable[Tuple[object, object]]) -> None:
    """Raise the error of the first item that read refuses, at its index or
    key.  A container's reader calls it once reading all its items failed;
    readers are pure, so the same item fails again."""
    for k, v in items:
        try:
            read(v)
        except _FieldError as exc:
            raise _FieldError(f"[{k}]{exc}") from None


def _distinct(ids: Tuple[object, ...], what: str) -> None:
    if len(set(ids)) != len(ids):
        raise _FieldError(f" repeats {what} in {list(ids)}")


def _list(item: Kind, make: Callable = tuple, what: str = "") -> Kind:
    """A JSON list, read into make of the tuple of its items, which must
    not repeat if what names them."""
    read_item, write_item = item

    def read(v: object) -> object:
        if type(v) is not list:
            raise _FieldError(f" {v!r} is not a list")
        try:
            items = tuple(map(read_item, v))
        except _FieldError:
            _locate(read_item, enumerate(v))
        if what:
            _distinct(items, what)
        return make(items)
    return read, list if write_item is _same else lambda v: list(map(write_item, v))


def _row(*places: Kind, make: Optional[Callable] = None, parts: Callable = _same) -> Kind:
    """A JSON list of one value per place, read into the tuple of the
    values, or into make(*values), and written from parts(value).  A bad
    place is reported at the row."""
    reads, writes = zip(*places)
    size = len(reads)

    def read(v: object) -> object:
        if type(v) is not list or len(v) != size:
            raise _FieldError(f" {v!r} is not a list of {size} values")
        values = [r(x) for r, x in zip(reads, v)]
        return tuple(values) if make is None else make(*values)

    convert = [(i, w) for i, w in enumerate(writes) if w is not _same]

    def write(v: object) -> list:
        out = list(parts(v))
        for i, w in convert:
            out[i] = w(out[i])
        return out
    return read, list if parts is _same and not convert else write


def _map(key: Callable[[str], object], value: Kind, make: Callable[[Dict], object]) -> Kind:
    """A JSON object of any keys, each read by key, read into make of the
    dict, and written from a dict or from (key, value) pairs."""
    read_value, write_value = value

    def read(v: object) -> object:
        if type(v) is not dict:
            raise _FieldError(f" {v!r} is not an object")
        try:
            return make({key(k): read_value(x) for k, x in v.items()})
        except _FieldError:
            for k in v:
                key(k)
            _locate(read_value, v.items())

    def write(v: object) -> dict:
        return {str(k): write_value(x) for k, x in (v.items() if type(v) is dict else v)}
    return read, write


def _getters(cls: type) -> Callable[[object], Tuple[object, ...]]:
    """The values of a dataclass's fields, in order."""
    return attrgetter(*(f.name for f in fields(cls)))


def _table(make: Callable, *table: Tuple[str, Kind], parts: Optional[Callable] = None,
           optional: Tuple[str, ...] = ()) -> Kind:
    """A JSON object of the table's fields, read into make(*values) and
    written from parts(value), by default the fields of the dataclass make,
    both in table order.  Every field is required but those in optional,
    which read as None when missing and are not written when None.  A key
    the table does not name is refused."""
    names = [name for name, _ in table]
    known = set(names)
    reads, writes = zip(*(kind for _, kind in table))
    parts = parts or _getters(make)

    def read(v: object) -> object:
        if type(v) is not dict:
            raise _FieldError(f" {v!r} is not an object")
        values = []
        for name, read_field in zip(names, reads):
            if name in v:
                try:
                    values.append(read_field(v[name]))
                except _FieldError as exc:
                    raise _FieldError(f".{name}{exc}") from None
            elif name in optional:
                values.append(None)
            else:
                raise _FieldError(f".{name} is missing")
        if not known.issuperset(v):
            raise _FieldError(f" has fields {sorted(set(v) - known)} outside its table")
        return make(*values)

    def write(v: object) -> dict:
        return {name: write_field(x) for name, write_field, x in zip(names, writes, parts(v))
                if x is not None or name not in optional}
    return read, write


def _document(name: str, make: Callable, *table: Tuple[str, Kind],
              parts: Optional[Callable] = None, optional: Tuple[str, ...] = ()) -> Kind:
    """A document: its type, its graph, and the table of one value, read
    into (graph, value) and written from it."""
    parts = parts or _getters(make)
    return _table(lambda _, G, *values: (G, make(*values)),
                  ("type", _typed(str, repr(name), (name,))), ("graph", GRAPH), *table,
                  parts=lambda doc: (name, doc[0], *parts(doc[1])), optional=optional)


def _edge_pairs(v: object) -> Tuple[Tuple[int, int], ...]:
    """(edge id, multiplicity) pairs, no id twice: a list of rows of two
    ints, taken in one pass when every row is one, or else read row by row,
    which names the bad row."""
    pairs = ()
    if type(v) is list:
        pairs = tuple([(p[0], p[1]) for p in v if type(p) is list and len(p) == 2
                       and type(p[0]) is int and type(p[1]) is int])
    if type(v) is not list or len(pairs) != len(v):
        pairs = INT_PAIRS[0](v)
    _distinct(tuple(eid for eid, _ in pairs), "an edge id")
    return pairs


INT = _typed(int, "an integer")
STRING = _typed(str, "a string")
ANY = (_same, _same)          # metadata, which verify compares with its row's
RATIONAL = (_rational, frac_str)
INTS = _list(INT)
INT_PAIRS = _list(_row(INT, INT))
PAIRS = (_edge_pairs, INT_PAIRS[1])
# Sets are read from lists, so that a repeat is caught, and written sorted.
EDGE_SET = (_list(INT, frozenset, "an edge id")[0], sorted)
LABEL_SET = (_list(_typed(str, "a class label", LABELS), frozenset, "a label")[0], sorted)
ID_VECTOR = _map(_key, RATIONAL, _same)
ID_PAIRS = _map(_key, RATIONAL, _sorted_items)


# ---------------------------------------------------------------------------
# JSON tables: the five document types and the values inside them


EDGE = _row(INT, INT, RATIONAL, INT, make=Edge, parts=attrgetter("u", "v", "weight", "id"))
GRAPH = _table(Multigraph, ("n", INT), ("edges", _list(EDGE)),
               parts=lambda G: (G.n, sorted(G.edges, key=attrgetter("id"))))
TERM = _table(Term, ("lambda", RATIONAL), ("edges", PAIRS), ("classes", LABEL_SET))
COMBINATION = _table(ConvexCombination,
                     ("terms", _list(TERM)), ("target", ID_PAIRS), ("relation", STRING))
# A stored cut carries its dual y, so an lp-result is read from (Cut, y) pairs.
CUT_WITH_DUAL = _table(lambda shore, edges, y: (Cut(shore, edges), y),
                       ("shore", INTS), ("edges", EDGE_SET), ("y", RATIONAL),
                       parts=lambda pair: (pair[0].shore, pair[0].edge_ids, pair[1]))
LP_RESULT = _document(
    "lp-result",
    lambda value, x, cuts, rounds: LpResult(value, x, tuple(c for c, _ in cuts), rounds,
                                            tuple(y for _, y in cuts)),
    ("value", RATIONAL), ("x", ID_VECTOR), ("cuts", _list(CUT_WITH_DUAL)),
    ("separation_rounds", INT),
    parts=lambda res: (res.value, res.x, zip(res.cuts, res.duals), res.separation_rounds))
CYCLE_COVER = _document(
    "cycle-cover", CycleCoverResult,
    ("cover", INTS), ("cycles", _list(INTS)), ("matching", INTS),
    ("intra_cycle", INTS), ("cross_cycle", INTS),
    ("covered_cuts", _list(_row(EDGE_SET, INT))))
DECOMPOSITION = _document(
    "decomposition", lambda kind, comb: (kind, comb),
    ("kind", _typed(str, "a decomposition kind", DECOMPOSITION_KINDS)),
    ("combination", COMBINATION), parts=_same)
CERTIFICATE = _document(
    "uniform-cover-certificate", Certificate,
    ("variant", STRING), ("profile", STRING), ("alpha", RATIONAL), ("object_class", STRING),
    ("combination", COMBINATION), ("slack", ID_PAIRS), ("max_multiplicity", INT),
    ("metadata", _map(_same, ANY, _sorted_items)))
APPROX = _document(
    "approx-result", ApproxResult,
    ("algorithm", STRING), ("solution", PAIRS), ("weight", RATIONAL),
    ("lower_bound", RATIONAL), ("ratio", RATIONAL), ("object_class", STRING),
    ("x", ID_VECTOR), ("dual", _list(_row(INTS, RATIONAL))),
    ("beta", RATIONAL), ("profile", STRING), optional=("beta", "profile"))


# The public readers and writers, each one call into its kind.  A document
# is written from, and read into, its graph and its value.


def graph_from_json(obj: dict) -> Multigraph:
    return _read(GRAPH, obj, "graph")


def combination_from_json(obj: dict) -> ConvexCombination:
    return _read(COMBINATION, obj, "combination")


def lp_result_to_json(G: Multigraph, res: LpResult) -> dict:
    return LP_RESULT[1]((G, res))


def lp_result_from_json(obj: dict) -> Tuple[Multigraph, LpResult]:
    return _read(LP_RESULT, obj, "lp-result")


def cycle_cover_to_json(G: Multigraph, res: CycleCoverResult) -> dict:
    return CYCLE_COVER[1]((G, res))


def cycle_cover_from_json(obj: dict) -> Tuple[Multigraph, CycleCoverResult]:
    return _read(CYCLE_COVER, obj, "cycle-cover")


def decomposition_to_json(G: Multigraph, comb: ConvexCombination, kind: str) -> dict:
    return DECOMPOSITION[1]((G, (kind, comb)))


def decomposition_from_json(obj: dict) -> Tuple[Multigraph, Tuple[str, ConvexCombination]]:
    """The graph, and the decomposition's kind with its combination."""
    return _read(DECOMPOSITION, obj, "decomposition")


def certificate_to_json(G: Multigraph, cert: Certificate) -> dict:
    return CERTIFICATE[1]((G, cert))


def certificate_from_json(obj: dict) -> Tuple[Multigraph, Certificate]:
    return _read(CERTIFICATE, obj, "certificate")


def approx_to_json(G: Multigraph, res: ApproxResult) -> dict:
    return APPROX[1]((G, res))


def approx_from_json(obj: dict) -> Tuple[Multigraph, ApproxResult]:
    return _read(APPROX, obj, "approx-result")


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
    # An int of more digits than int() converts, or nesting deeper than the
    # decoder recurses.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    return obj
