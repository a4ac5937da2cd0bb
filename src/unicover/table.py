"""The one table of uniform-cover variants and approximation algorithms:
covers and approx build from a row.  A cover row types only its profile
and recipe, and every number of it is derived at import (_cover).
check_fields compares a stored record with the one its builder rebuilds
from the record's claim."""
from __future__ import annotations

import reprlib
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

from .cyclecover import contraction_connectivity
from .graph import PROFILES

F = Fraction
Bounds = Tuple[Tuple[Fraction, Fraction], ...]   # per part: (bound on C, bound on M)


@dataclass(frozen=True)
class Row:
    """How one variant or algorithm is built and what its document must show.

    A cover row claims that everywhere-alpha (alpha is its ratio) dominates
    a convex combination of its objects, built by its recipe in RECIPES.
    Each part of a recipe covers each edge class, C (the cycle cover) and M
    (the matching E - C), at most its bound in RECIPES, and _cover derives
    the rest from those bounds and the profile's edge-connectivity λ:
      cover_r = 1/(λ - 1): each fundamental cut of a tree has at least
          λ - 1 edges outside the tree, so everywhere-cover_r there puts
          at least 1 on it;
      r = 2/λ, or 2/λ(G/C) (cyclecover.contraction_connectivity) when the
          trees and tours are packed in G/C: every cut of everywhere-r then
          has value at least 2;
      mixing = (a, 1 - a), the a that gives C and M the same bound, which
          is alpha; a one-part recipe has no mixing, and its bound is alpha.
    An approx row types its ratio and slope.
    """
    kind: str                          # "cover" or "approx"
    profile: Optional[str]             # input profile; None for a beta row
    object_class: str                  # required label of every term or output
    recipe: str
    ratio: Fraction                    # alpha, or the ratio at beta = 0
    slope: Fraction = F(0)             # ratio per unit of beta = w(E) / LP bound
    subgraph_only: bool = False        # no term may double an edge
    r: Optional[Fraction] = None
    cover_r: Optional[Fraction] = None
    mixing: Tuple[Fraction, ...] = ()  # weights of a cycle-cover recipe's parts

    def ratio_at(self, beta: Optional[Fraction]) -> Fraction:
        return self.ratio if beta is None else self.ratio + self.slope * beta


def one_cover_factor(c: Fraction) -> Fraction:
    """g(c) = 2c/(1 + c): decompose_one_covers packs a tree's 1-covers,
    drawn from everywhere-c outside the tree, dominated by (2/(1 + c))·c on
    each of those edges.  2/(1 + c) is 4/3 at c = 1/2, the integrality
    ratio of half-integral tree augmentation."""
    return 2 * c / (1 + c)


@dataclass(frozen=True)
class Recipe:
    """A cover construction: one part, or two mixed by the row's mixing.
    With C a cycle cover crossing every 3- and 4-edge cut twice, M = E - C
    the matching, and x the vector 1/2 on C and 1 on M, bounds(r, cover_r)
    gives each part's coverage bound on C and on M."""
    object_class: str
    subgraph_only: bool
    cycles: bool       # built on a covering cycle cover C, its trees packed in G/C
    one_covers: bool   # trees are completed by 1-covers from everywhere-cover_r
    bounds: Callable[[Fraction, Optional[Fraction]], Bounds]


RECIPES: Dict[str, Recipe] = {
    # C plus doubled spanning trees of G/C packed from everywhere-r; Wolsey
    # tours of x, dominated by (3/2)·x.
    "cycles+doubled-trees": Recipe("tour", False, True, False,
                                   lambda r, c: ((F(1), 2 * r), (F(3, 4), F(3, 2)))),
    # C plus Wolsey tours of G/C from everywhere-r; trees of x, each
    # completed by 1-covers.
    "cycles+tours": Recipe("twoec-multigraph", False, True, True,
                           lambda r, c: ((F(1), F(3, 2) * r),
                                         ((1 + one_cover_factor(c)) / 2, F(1)))),
    # Trees of everywhere-r, each completed by 1-covers.
    "tree+cover": Recipe("twoec-multigraph", True, False, True,
                         lambda r, c: ((r + (1 - r) * one_cover_factor(c),) * 2,)),
}


def _cover(profile: str, recipe: str) -> Row:
    """The cover row of the recipe on the profile's inputs (see Row)."""
    spec = RECIPES[recipe]
    lam = PROFILES[profile][1]
    cover_r = F(1, lam - 1) if spec.one_covers else None
    packed_in = (contraction_connectivity(profile == "bipartite-cubic-3ec")
                 if spec.cycles else lam)
    r = F(2, packed_in)
    parts = spec.bounds(r, cover_r)
    if len(parts) == 1:
        alpha, mixing = max(parts[0]), ()
    else:
        (c1, m1), (c2, m2) = parts
        a = (m2 - c2) / (c1 - m1 + m2 - c2)
        alpha, mixing = a * c1 + (1 - a) * c2, (a, 1 - a)
    return Row("cover", profile, spec.object_class, recipe, alpha,
               subgraph_only=spec.subgraph_only, r=r, cover_r=cover_r, mixing=mixing)


TABLE: Dict[str, Row] = {
    "18/19": _cover("cubic-3ec", "cycles+doubled-trees"),
    "12/13": _cover("bipartite-cubic-3ec", "cycles+doubled-trees"),
    "15/17": _cover("cubic-3ec", "cycles+tours"),
    "8/9": _cover("cubic-3ec", "tree+cover"),
    "7/8": _cover("bipartite-cubic-3ec", "cycles+tours"),
    "3/4": _cover("4regular-4ec", "tree+cover"),
    "tsp75": Row("approx", "cubic-3ec", "tour", "doubled-mst", F(7, 5)),
    "twoec1310": Row("approx", "cubic-3ec", "twoec-multigraph", "mst+join", F(13, 10)),
    "bip43": Row("approx", "bipartite-cubic-3ec", "tour", "doubled-mst", F(4, 3)),
    "bip54": Row("approx", "bipartite-cubic-3ec", "twoec-multigraph", "mst+join", F(5, 4)),
    "twoecbeta": Row("approx", None, "twoec-multigraph", "connector+cover", F(1, 3), F(2, 3)),
    "tspbeta": Row("approx", None, "tour", "connector+join", F(1), F(1, 3)),
}


def names(kind: str) -> Tuple[str, ...]:
    return tuple(name for name, row in TABLE.items() if row.kind == kind)


def lookup_row(name: str, kind: str, error: type) -> Row:
    row = TABLE.get(name)
    if row is None or row.kind != kind:
        raise error(f"unknown {'variant' if kind == 'cover' else 'algorithm'} {name!r}")
    return row


def check_fields(stored: object, want: object, error: type) -> None:
    """Raise error naming the first dataclass field of stored that differs
    from want's."""
    for field in fields(want):
        got, value = getattr(stored, field.name), getattr(want, field.name)
        if got != value:
            raise error(f"stored {field.name} {_show(got)} is not {_show(value)}")


def _show(value: object) -> str:
    return str(value) if isinstance(value, (str, int, Fraction)) else reprlib.repr(value)
