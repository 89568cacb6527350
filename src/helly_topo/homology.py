"""Exact reduced simplicial homology over GF(2) or the rationals.

All homology here is reduced: a point has every group zero, and degree -1
detects emptiness (the empty complex is the only one with nonvanishing
degree -1 homology, encoded as ``nonempty=False`` rather than a numeric
Betti entry).  A complex is connected exactly when its reduced b_0 is 0,
which makes the empty complex vacuously connected.

Ranks are computed exactly by one column reduction, the one of persistent
homology: each k-simplex's boundary is a sparse column read from the
ambient's index, reduced by the stored pivots until its lowest row is new.
Over GF(2) a column is a facet bitmask; over the rationals it maps facet
bits to signs, and entries stay ints or Fractions.
`betti_number` skips elimination where a rank identity holds (see
`_rank`); `reduced_betti` always eliminates and is the oracle for it.  No
floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .complex_core import Subcomplex, _select
from .errors import ContractViolation, InvariantViolation


class CoefficientField(Enum):
    GF2 = "gf2"
    RATIONALS = "q"

    @classmethod
    def from_tag(cls, tag: str) -> "CoefficientField":
        for f in cls:
            if f.value == tag:
                return f
        raise ContractViolation(f"unknown coefficient field tag {tag!r}")


GF2 = CoefficientField.GF2
RATIONALS = CoefficientField.RATIONALS


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers plus the nonemptiness flag for degree -1."""

    nonempty: bool
    betti: dict
    field: CoefficientField

    def __post_init__(self):
        if not self.nonempty and any(self.betti.values()):
            raise ContractViolation("an empty complex has all Betti numbers zero")

    def betti_at(self, k: int) -> int:
        """b_k with the degree conventions: b_{-1} is 1 iff empty, 0 below that."""
        if k < -1:
            return 0
        if k == -1:
            return 0 if self.nonempty else 1
        return self.betti.get(k, 0)

    def to_dict(self) -> dict:
        return {
            "nonempty": self.nonempty,
            "betti": {str(k): self.betti[k] for k in sorted(self.betti)},
            "field": self.field.value,
        }


def _dim_mask(index, mask: int, k: int) -> int:
    """The k-simplices of mask (none outside the index's dimensions)."""
    return mask & index.dim_masks[k] if 0 <= k < len(index.dim_masks) else 0


def _rank_gf2_columns(cols) -> int:
    pivots = {}
    rank = 0
    for v in cols:
        while v:
            low = v.bit_length() - 1
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                rank += 1
                break
            v ^= p
    return rank


def _rank_q_columns(index, mask: int, k: int) -> int:
    """Rank over the rationals of the boundary map from the mask's k-chains,
    by the column reduction of `_rank_gf2_columns` on sparse columns.

    A k-simplex's column maps each facet bit to its sign: its facets in
    increasing bit order drop vertex k, k-1, ..., 0, so their signs
    alternate starting from (-1)^k.  A column is reduced by the stored pivot
    whose lowest row is its own, and each pivot is stored scaled to lead
    with 1, so entries stay ints except where a lead is not +-1.
    """
    pivots = {}
    rank = 0
    for facets in _select(index.facets, _dim_mask(index, mask, k)):
        col = {}
        sign = (-1) ** k
        while facets:
            bit = facets & -facets
            col[bit.bit_length() - 1] = sign
            facets ^= bit
            sign = -sign
        while col:
            low = max(col)
            p = pivots.get(low)
            if p is None:
                lead = col[low]
                if lead != 1:
                    col = {r: -v if lead == -1 else Fraction(v, lead) for r, v in col.items()}
                pivots[low] = col
                rank += 1
                break
            c = col[low]
            for r, v in p.items():
                w = col.get(r, 0) - c * v
                if w:
                    col[r] = w
                else:
                    del col[r]
    return rank


def _boundary_rank(index, mask: int, k: int, field: CoefficientField) -> int:
    """Rank of the boundary map from the mask's k-chains.  Over GF(2) each
    k-simplex's facet mask is its column: rows outside the mask stay zero."""
    if field is GF2:
        return _rank_gf2_columns(_select(index.facets, _dim_mask(index, mask, k)))
    return _rank_q_columns(index, mask, k)


def reduced_betti(cx, field: CoefficientField = GF2) -> BettiVector:
    """Reduced Betti vector of a complex or subcomplex, every rank eliminated
    from the ambient's index.

    b_0 is independently cross-checked on every call against the component
    count that `betti_number` reads: the parts of a generated member or of
    a union of them, else a union-find over the index's edges.
    """
    ambient, mask, parts = _indexed(cx)
    if not mask:
        return BettiVector(False, {}, field)
    index = ambient._index
    counts = [index.count(mask, k) for k in range(len(index.dim_masks))]
    while not counts[-1]:
        counts.pop()
    # rank 1 for the augmentation C_0 -> Z, rank 0 above the top dimension
    ranks = [1] + [_boundary_rank(index, mask, k, field) for k in range(1, len(counts))] + [0]
    betti = {k: n - ranks[k] - ranks[k + 1] for k, n in enumerate(counts)}
    comps = _components(index, mask, parts)
    if betti[0] + 1 != comps:
        raise InvariantViolation(
            f"rank-based b0={betti[0]} disagrees with graph components={comps}"
        )
    return BettiVector(True, betti, field)


def _indexed(cx):
    """(ambient, mask, parts) of a complex or subcomplex: the mask of a whole
    complex has every bit of its own index set, and its parts are unknown."""
    if isinstance(cx, Subcomplex):
        return cx.parent, cx.mask, cx.parts
    return cx, (1 << len(cx.simplices)) - 1, None


def betti_number(cx, k: int, field: CoefficientField = GF2) -> int:
    """Single reduced Betti number, with the degree -1 emptiness convention.

    Cheaper than the full vector: degree -1 is an emptiness test, degree 0
    a component count, and b_k = n_k - rank d_k - rank d_{k+1} takes each
    rank from `_rank` without elimination where linear algebra fixes it.
    Counts and edges come from the bitmask over the ambient's index.
    """
    if k < -1:
        return 0
    ambient, mask, parts = _indexed(cx)
    if k == -1:
        return 0 if mask else 1
    if not mask:
        return 0
    index = ambient._index
    if k == 0:
        return _components(index, mask, parts) - 1
    n_k = index.count(mask, k)
    if not n_k:
        return 0
    return n_k - _rank(ambient, mask, k, field, parts) - _rank(ambient, mask, k + 1, field, parts)


def _components(index, mask, parts=None) -> int:
    """Connected components of the mask's 1-skeleton: the number of
    ``parts`` when they are known, else a union-find over the vertex bits,
    joined along the mask's edges.  The union-find copies the index's
    prebuilt root list and decodes only the mask's edge bits, not the
    simplices above them."""
    if parts is not None:
        return len(parts)
    root = index.roots.copy()
    merges = 0
    for u, v in _select(index.edges, _dim_mask(index, mask, 1) >> index.n_vertices):
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            root[u] = v
            merges += 1
    return index.count(mask, 0) - merges


def _rank(ambient, mask, k: int, field: CoefficientField, parts) -> int:
    """Rank of the boundary map from the k-chains of a mask, over either field.

    rank d_1 = V - c over every field, c the component count: the number of
    the mask's ``parts`` when they are known, else a union-find.
    At the ambient's top dimension D, a subcomplex's D-cycles are D-cycles
    of the ambient, so when the ambient has none (`_top_boundary_injective`)
    rank d_D is the number of D-simplices.  Every other rank is eliminated;
    `reduced_betti` eliminates every rank and is the oracle for this path.
    """
    index = ambient._index
    n_k = index.count(mask, k)
    if not n_k:
        return 0
    if k == 1:
        return index.count(mask, 0) - _components(index, mask, parts)
    if k == ambient.dimension and _top_boundary_injective(ambient, field):
        return n_k
    return _boundary_rank(index, mask, k, field)


@lru_cache(maxsize=8)
def _top_boundary_injective(ambient, field: CoefficientField) -> bool:
    """Whether the ambient's top boundary map has trivial kernel over field."""
    top = ambient.dimension
    _, mask, _ = _indexed(ambient)
    return _boundary_rank(ambient._index, mask, top, field) == ambient._index.count(mask, top)
