"""The one table of uniform-cover variants and approximation algorithms:
covers and approx build from a row.  check_fields compares a stored record
with the one its builder rebuilds from the record's claim."""
from __future__ import annotations

import reprlib
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, Optional, Tuple

F = Fraction


@dataclass(frozen=True)
class Row:
    """How one variant or algorithm is built and what its document must show.

    A cover row claims that everywhere-alpha (alpha is its ratio) dominates
    a convex combination of its objects.  With C a cycle cover crossing
    every 3- and 4-edge cut twice, and x the vector 1/2 on C and 1 off C,
    the cover recipes are:
      "cycles+doubled-trees": mixing[0] * (C plus doubled spanning trees of
          G/C packed from everywhere-r) + mixing[1] * (Wolsey tours of x);
      "cycles+tours": mixing[0] * (C plus Wolsey tours of G/C from
          everywhere-r) + mixing[1] * (trees of x, each completed by 1-covers);
      "tree+cover": trees of everywhere-r, each completed by 1-covers.
    The 1-covers of a tree are drawn from everywhere-cover_r outside it.
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


TABLE: Dict[str, Row] = {
    "18/19": Row("cover", "cubic-3ec", "tour", "cycles+doubled-trees", F(18, 19),
                 r=F(2, 5), mixing=(F(15, 19), F(4, 19))),
    "12/13": Row("cover", "bipartite-cubic-3ec", "tour", "cycles+doubled-trees", F(12, 13),
                 r=F(1, 3), mixing=(F(9, 13), F(4, 13))),
    "15/17": Row("cover", "cubic-3ec", "twoec-multigraph", "cycles+tours", F(15, 17),
                 r=F(2, 5), cover_r=F(1, 2), mixing=(F(5, 17), F(12, 17))),
    "8/9": Row("cover", "cubic-3ec", "twoec-multigraph", "tree+cover", F(8, 9),
               subgraph_only=True, r=F(2, 3), cover_r=F(1, 2)),
    "7/8": Row("cover", "bipartite-cubic-3ec", "twoec-multigraph", "cycles+tours", F(7, 8),
               r=F(1, 3), cover_r=F(1, 2), mixing=(F(1, 4), F(3, 4))),
    "3/4": Row("cover", "4regular-4ec", "twoec-multigraph", "tree+cover", F(3, 4),
               subgraph_only=True, r=F(1, 2), cover_r=F(1, 3)),
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
