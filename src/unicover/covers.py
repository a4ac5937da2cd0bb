"""Certified uniform covers: write an everywhere-alpha vector as a dominating
convex combination of tours or 2-edge-connected spanning multigraphs.

Every variant is a cover row of table.TABLE.  cover_parts builds the parts
of its recipe in table.RECIPES, which bounds what each part covers on the
cycle cover C and on the matching E - C; table.Row derives the row's alpha,
mixing, r and cover_r from those bounds, and uniform_cover weighs the parts
by the mixing.  build_certificate builds every certificate from its
combination.  check_certificate re-verifies the combination exactly
(convex, dominated by everywhere-alpha, every term of its class) and then
compares each stored field with the certificate built from it.  The
metadata holds only what the row fixes (its mixing weights or its
construction), so every metadata field is checked by equality too.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .graph import EdgeVector, GraphError, Multigraph, multiset_union, require_profile
from .cyclecover import contracted_cycle_cover
from .decompose import (ConvexCombination, Terms, decompose_spanning_trees, make_combination,
                        one_cover_completions, verify_combination, wolsey_tours)
from .lp import everywhere
from .table import Row, check_fields, lookup_row, names

ZERO = Fraction(0)
ONE = Fraction(1)

VARIANTS = names("cover")


class CoverError(GraphError):
    pass


@dataclass(frozen=True)
class Certificate:
    variant: str
    profile: str
    alpha: Fraction
    object_class: str                       # required label of every term
    combination: ConvexCombination
    slack: Tuple[Tuple[int, Fraction], ...]  # per-edge alpha - coverage
    max_multiplicity: int
    metadata: Tuple[Tuple[str, str], ...]


def build_certificate(G: Multigraph, variant: str, comb: ConvexCombination,
                      coverage: EdgeVector) -> Certificate:
    """The certificate of the variant's combination: the row's fields, the
    slack alpha - coverage on every edge and the largest multiplicity."""
    spec = lookup_row(variant, "cover", CoverError)
    return Certificate(
        variant=variant,
        profile=spec.profile,
        alpha=spec.ratio,
        object_class=spec.object_class,
        combination=comb,
        slack=tuple(sorted((e.id, spec.ratio - coverage.get(e.id, ZERO)) for e in G.edges)),
        max_multiplicity=max((m for t in comb.terms for _, m in t.edges), default=0),
        metadata=tuple(sorted(_metadata(spec).items())),
    )


def check_certificate(G: Multigraph, cert: Certificate) -> None:
    """Re-verify a certificate from its raw fields; raises on any defect.
    G's profile is the caller's to test: uniform_cover tests it before it
    builds, and verify after this check."""
    spec = lookup_row(cert.variant, "cover", CoverError)
    comb = cert.combination
    if comb.relation != "dominated-by" or comb.target_vector() != everywhere(G, spec.ratio):
        raise CoverError("combination target is not the everywhere-alpha vector")
    cover = verify_combination(G, comb, spec.object_class)
    meta = dict(cert.metadata)
    want = _metadata(spec)
    if set(meta) != set(want):
        raise CoverError(f"metadata fields {sorted(meta)} are not {sorted(want)}")
    for field, value in want.items():
        if meta[field] != value:
            raise CoverError(f"metadata {field} {meta[field]!r} is not {value!r}")
    built = build_certificate(G, cert.variant, comb, cover)
    if spec.subgraph_only and built.max_multiplicity > 1:
        raise CoverError("subgraph variant contains a doubled edge")
    check_fields(cert, built, CoverError)


def _metadata(spec: Row) -> Dict[str, str]:
    """The metadata of a certificate of the variant."""
    if spec.recipe == "tree+cover":
        return {"construction": spec.recipe}
    return {"mixing": ",".join(str(w) for w in spec.mixing)}


def _tree_cover_terms(G: Multigraph, x: EdgeVector, cover_r: Fraction) -> Terms:
    """Trees packed from x, each completed by 1-covers of its bridges drawn
    from the everywhere-cover_r vector outside the tree."""
    return [(tc * coeff, obj)
            for tc, tree in decompose_spanning_trees(G, x)
            for coeff, obj in one_cover_completions(G, tree, cover_r)]


def cover_parts(G: Multigraph, spec: Row) -> List[Terms]:
    """The parts of the row's recipe, each a convex combination, that
    uniform_cover weighs by the row's mixing.  G's profile is the caller's
    to test."""
    if spec.recipe == "tree+cover":
        return [_tree_cover_terms(G, everywhere(G, spec.r), spec.cover_r)]
    cc, H = contracted_cycle_cover(G)
    C = cc.cover_multiset()
    doubled = spec.recipe == "cycles+doubled-trees"
    if H.n == 1:
        closed = [(ONE, C)]
    else:
        pack, mult = (decompose_spanning_trees, 2) if doubled else (wolsey_tours, 1)
        closed = [(c, multiset_union(C, {eid: mult * m for eid, m in obj.items()}))
                  for c, obj in pack(H, everywhere(H, spec.r))]
    x = {e.id: (Fraction(1, 2) if e.id in C else ONE) for e in G.edges}
    rest = wolsey_tours(G, x) if doubled else _tree_cover_terms(G, x, spec.cover_r)
    return [closed, rest]


def uniform_cover(G: Multigraph, variant: str) -> Certificate:
    """Everywhere-alpha dominates a convex combination of the variant's
    objects; the variant's row of the table says how it is built."""
    spec = lookup_row(variant, "cover", CoverError)
    require_profile(G, spec.profile, CoverError)
    terms = [(weight * coeff, obj)
             for weight, part in zip(spec.mixing or (ONE,), cover_parts(G, spec))
             for coeff, obj in part]
    comb = make_combination(G, terms, everywhere(G, spec.ratio), "dominated-by")
    cert = build_certificate(G, variant, comb, comb.coverage())
    check_certificate(G, cert)
    return cert
