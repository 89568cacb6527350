"""Exact reduced simplicial homology over GF(2) or the rationals.

All homology here is reduced: a point has every group zero, and degree -1
detects emptiness (the empty complex is the only one with nonvanishing
degree -1 homology, encoded as ``nonempty=False`` rather than a numeric
Betti entry).  A complex is connected exactly when its reduced b_0 is 0,
which makes the empty complex vacuously connected.

Ranks are computed exactly: bitset Gaussian elimination over GF(2) and
fraction-free (Bareiss) integer elimination for the rationals.  No
floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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

    def reduced_euler(self) -> int:
        """Alternating sum of b_k over k >= -1; the empty complex gives -1."""
        total = -self.betti_at(-1)
        for k, b in self.betti.items():
            total += (-1) ** k * b
        return total

    def to_dict(self) -> dict:
        return {
            "nonempty": self.nonempty,
            "betti": {str(k): self.betti[k] for k in sorted(self.betti)},
            "field": self.field.value,
        }


def _simplices_by_dim(cx) -> dict:
    by = {}
    for s in cx.simplices:
        by.setdefault(len(s) - 1, []).append(s)
    return {k: sorted(v) for k, v in by.items()}


def _signed_boundary(lower, uppers):
    """Incidence matrix with the usual alternating signs; rows follow `lower`."""
    idx = {s: i for i, s in enumerate(lower)}
    mat = [[0] * len(uppers) for _ in lower]
    for j, s in enumerate(uppers):
        sign = 1
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            mat[idx[face]][j] = sign
            sign = -sign
    return mat


def _gf2_columns(lower, uppers):
    """Boundary columns as row-index bitmasks (signs are irrelevant mod 2)."""
    idx = {s: i for i, s in enumerate(lower)}
    cols = []
    for s in uppers:
        mask = 0
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            mask |= 1 << idx[face]
        cols.append(mask)
    return cols


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


def _rank_bareiss(mat) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, ncols):
                row_i[j] = (row_i[j] * pv - f * row_r[j]) // prev
            row_i[c] = 0
        prev = pv
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def _boundary_rank(lower, uppers, field: CoefficientField) -> int:
    if not lower or not uppers:
        return 0
    if field is GF2:
        return _rank_gf2_columns(_gf2_columns(lower, uppers))
    return _rank_bareiss(_signed_boundary(lower, uppers))


def boundary_matrix(cx, k: int, field: CoefficientField = RATIONALS):
    """Boundary operator from k-chains to (k-1)-chains, as a dense int matrix.

    Rows are indexed by the sorted (k-1)-simplices and columns by the sorted
    k-simplices.  For k = 0 this is the augmentation row (all ones) of the
    reduced chain complex.  Over GF(2) entries are reduced mod 2.
    """
    if k < 0:
        raise ContractViolation("boundary dimension must be >= 0")
    by = _simplices_by_dim(cx)
    if k == 0:
        verts = by.get(0, [])
        return [[1] * len(verts)] if verts else []
    lower = by.get(k - 1, [])
    uppers = by.get(k, [])
    mat = _signed_boundary(lower, uppers)
    if field is GF2:
        mat = [[abs(x) % 2 for x in row] for row in mat]
    return mat


def _component_count(cx) -> int:
    """Connected components of the 1-skeleton, by union-find."""
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for s in cx.simplices:
        if len(s) == 1:
            parent.setdefault(s[0], s[0])
    for s in cx.simplices:
        if len(s) == 2:
            a, b = find(s[0]), find(s[1])
            if a != b:
                parent[a] = b
    return sum(1 for v in parent if find(v) == v)


def reduced_betti(cx, field: CoefficientField = GF2) -> BettiVector:
    """Reduced Betti vector of a complex or subcomplex.

    b_0 is independently cross-checked against a graph search of the
    1-skeleton on every call.
    """
    by = _simplices_by_dim(cx)
    if not by:
        return BettiVector(False, {}, field)
    dim = max(by)
    ranks = {}
    for k in range(1, dim + 1):
        ranks[k] = _boundary_rank(by.get(k - 1, []), by.get(k, []), field)
    ranks[dim + 1] = 0
    betti = {0: len(by[0]) - 1 - ranks.get(1, 0)}
    for k in range(1, dim + 1):
        betti[k] = len(by.get(k, [])) - ranks[k] - ranks[k + 1]
    comps = _component_count(cx)
    if betti[0] + 1 != comps:
        raise InvariantViolation(
            f"rank-based b0={betti[0]} disagrees with graph components={comps}"
        )
    return BettiVector(True, betti, field)


def betti_number(cx, k: int, field: CoefficientField = GF2) -> int:
    """Single reduced Betti number, with the degree -1 emptiness convention.

    Cheaper than the full vector: degree -1 is an emptiness test, degree 0
    a graph search, and only degrees >= 1 touch boundary matrices.
    """
    if k < -1:
        return 0
    nonempty = bool(cx.simplices)
    if k == -1:
        return 0 if nonempty else 1
    if not nonempty:
        return 0
    by = _simplices_by_dim(cx)
    dim = max(by)
    if k > dim:
        return 0
    if k == 0:
        return _component_count(cx) - 1
    rk = _boundary_rank(by.get(k - 1, []), by.get(k, []), field)
    rk_up = _boundary_rank(by.get(k, []), by.get(k + 1, []), field) if k + 1 <= dim else 0
    return len(by[k]) - rk - rk_up


def is_n_acyclic(cx, n: int, field: CoefficientField = GF2) -> bool:
    """True iff the complex is nonempty and b_k = 0 for 0 <= k <= n.

    For n = -1 this is exactly nonemptiness.
    """
    if n < -1:
        raise ContractViolation("n must be >= -1")
    if not cx.simplices:
        return False
    if n == -1:
        return True
    bv = reduced_betti(cx, field)
    return all(bv.betti_at(k) == 0 for k in range(0, n + 1))


@dataclass(frozen=True)
class MVReport:
    """Exactness witnesses extracted from a pair of subcomplexes.

    The reduced Euler characteristic satisfies
    chi(A u B) = chi(A) + chi(B) - chi(A n B) exactly, and each degree obeys
    the rank bound b_k(A u B) <= b_k(A) + b_k(B) + b_{k-1}(A n B).
    """

    betti_a: BettiVector
    betti_b: BettiVector
    betti_union: BettiVector
    betti_intersection: BettiVector
    euler_lhs: int
    euler_rhs: int
    rank_inequalities: tuple

    @property
    def euler_identity_holds(self) -> bool:
        return self.euler_lhs == self.euler_rhs

    @property
    def all_rank_inequalities_hold(self) -> bool:
        return all(ok for (_, _, _, ok) in self.rank_inequalities)

    def to_dict(self) -> dict:
        return {
            "betti_a": self.betti_a.to_dict(),
            "betti_b": self.betti_b.to_dict(),
            "betti_union": self.betti_union.to_dict(),
            "betti_intersection": self.betti_intersection.to_dict(),
            "euler_lhs": self.euler_lhs,
            "euler_rhs": self.euler_rhs,
            "euler_identity_holds": self.euler_identity_holds,
            "rank_inequalities": [
                {"degree": k, "lhs": lhs, "rhs": rhs, "holds": ok}
                for (k, lhs, rhs, ok) in self.rank_inequalities
            ],
        }


def mv_consistency(a, b, field: CoefficientField = GF2) -> MVReport:
    """Euler-characteristic and rank-bound consistency report for a pair."""
    from .complex_core import Subcomplex

    if a.parent != b.parent:
        raise ContractViolation("subcomplexes must share an ambient complex")
    union = Subcomplex(a.parent, a.member_simplices | b.member_simplices)
    inter = Subcomplex(a.parent, a.member_simplices & b.member_simplices)
    bv_a = reduced_betti(a, field)
    bv_b = reduced_betti(b, field)
    bv_u = reduced_betti(union, field)
    bv_i = reduced_betti(inter, field)
    lhs = bv_u.reduced_euler()
    rhs = bv_a.reduced_euler() + bv_b.reduced_euler() - bv_i.reduced_euler()
    inequalities = []
    for k in range(0, max(union.dimension, 0) + 1):
        left = bv_u.betti_at(k)
        right = bv_a.betti_at(k) + bv_b.betti_at(k) + bv_i.betti_at(k - 1)
        inequalities.append((k, left, right, left <= right))
    return MVReport(bv_a, bv_b, bv_u, bv_i, lhs, rhs, tuple(inequalities))
