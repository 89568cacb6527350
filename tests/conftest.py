"""Shared builders for the test suite."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from helly_topo.complex_core import (
    Subcomplex,
    SubcomplexFamily,
    build_complex,
    face_closure,
    grid_complex,
)
from helly_topo.errors import ContractViolation, GenerationFailure
from helly_topo.homology import GF2, reduced_betti
from helly_topo.polygon_draws import _GRID, random_convex_polygon
from helly_topo.transversal_kernel import (
    ConvexPolygon,
    PolygonFamily,
    _at,
    _convex_hull,
    _interiors_overlap,
    _placement_ok,
)


def known_spaces():
    """Classical fixed complexes with their reduced Betti numbers.

    Values are the textbook ones; the projective plane is the designated
    witness where GF(2) and rational homology disagree.
    """
    torus_tris = sorted(
        {tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)}
        | {tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)}
    )
    rp2_tris = [
        (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
        (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
    ]
    annulus_tris = [
        (0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5),
    ]
    return {
        "empty": (build_complex([]), {}, {}),
        "point": (build_complex([[0]]), {0: 0}, {0: 0}),
        "two_points": (build_complex([[0], [1]]), {0: 1}, {0: 1}),
        "triangle_boundary": (
            build_complex([[0, 1], [1, 2], [0, 2]]),
            {0: 0, 1: 1},
            {0: 0, 1: 1},
        ),
        "solid_triangle": (
            build_complex([[0, 1, 2]]),
            {0: 0, 1: 0, 2: 0},
            {0: 0, 1: 0, 2: 0},
        ),
        "tetrahedron_boundary": (
            build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
            {0: 0, 1: 0, 2: 1},
            {0: 0, 1: 0, 2: 1},
        ),
        "annulus": (
            build_complex(annulus_tris),
            {0: 0, 1: 1, 2: 0},
            {0: 0, 1: 1, 2: 0},
        ),
        "torus_7": (
            build_complex(torus_tris),
            {0: 0, 1: 2, 2: 1},
            {0: 0, 1: 2, 2: 1},
        ),
        "projective_plane_6": (
            build_complex(rp2_tris),
            {0: 0, 1: 1, 2: 1},  # GF(2)
            {0: 0, 1: 0, 2: 0},  # rationals
        ),
    }


def reduced_euler(bv):
    """Alternating sum of b_k over k >= -1 of a BettiVector; the empty
    complex gives -1."""
    return -bv.betti_at(-1) + sum((-1) ** k * b for k, b in bv.betti.items())


@dataclass(frozen=True)
class MVReport:
    """Exactness witnesses extracted from a pair of subcomplexes.

    The reduced Euler characteristic satisfies
    chi(A u B) = chi(A) + chi(B) - chi(A n B) exactly, and each degree obeys
    the rank bound b_k(A u B) <= b_k(A) + b_k(B) + b_{k-1}(A n B).
    """

    betti_a: object
    betti_b: object
    betti_union: object
    betti_intersection: object
    euler_lhs: int
    euler_rhs: int
    rank_inequalities: tuple

    @property
    def euler_identity_holds(self) -> bool:
        return self.euler_lhs == self.euler_rhs

    @property
    def all_rank_inequalities_hold(self) -> bool:
        return all(ok for (_, _, _, ok) in self.rank_inequalities)


def mv_consistency(a, b, field=GF2) -> MVReport:
    """Mayer-Vietoris oracle: Euler-characteristic and rank-bound
    consistency of a pair of subcomplexes of one ambient."""
    if a.parent != b.parent:
        raise ContractViolation("subcomplexes must share an ambient complex")
    union = Subcomplex(a.parent, a.member_simplices | b.member_simplices)
    inter = Subcomplex(a.parent, a.member_simplices & b.member_simplices)
    bv_a = reduced_betti(a, field)
    bv_b = reduced_betti(b, field)
    bv_u = reduced_betti(union, field)
    bv_i = reduced_betti(inter, field)
    lhs = reduced_euler(bv_u)
    rhs = reduced_euler(bv_a) + reduced_euler(bv_b) - reduced_euler(bv_i)
    inequalities = []
    for k in range(max(map(len, union.member_simplices), default=1)):
        left = bv_u.betti_at(k)
        right = bv_a.betti_at(k) + bv_b.betti_at(k) + bv_i.betti_at(k - 1)
        inequalities.append((k, left, right, left <= right))
    return MVReport(bv_a, bv_b, bv_u, bv_i, lhs, rhs, tuple(inequalities))


def cell_triangles(n, ix, iy):
    """The two triangles of grid cell (ix, iy) in grid_complex(n)."""
    stride = n + 1
    a = iy * stride + ix
    b = a + 1
    c = a + stride
    d = c + 1
    return [tuple(sorted((a, b, d))), tuple(sorted((a, c, d)))]


def rect_subcomplex(ambient, n, x0, x1, y0, y1):
    """Face closure of all cells with x0 <= ix < x1, y0 <= iy < y1."""
    tris = []
    for iy in range(y0, y1):
        for ix in range(x0, x1):
            tris.extend(cell_triangles(n, ix, iy))
    return Subcomplex(ambient, face_closure(tris))


def cells_subcomplex(ambient, n, cells):
    tris = []
    for ix, iy in cells:
        tris.extend(cell_triangles(n, ix, iy))
    return Subcomplex(ambient, face_closure(tris))


def make_family(ambient, members):
    labels = tuple(f"A{i + 1}" for i in range(len(members)))
    return SubcomplexFamily(ambient, tuple(members), labels)


def sweep_counts(verdicts) -> dict:
    """A sweep report's counts, recounted from its trials' verdicts."""
    held = [v.conclusion_holds for v in verdicts if v.hypotheses_hold]
    return {
        "total": len(verdicts),
        "hypotheses_satisfied": len(held),
        "conclusion_held": sum(held),
        "conclusion_violated": held.count(False),
        "hypotheses_failed_conclusion_failed": sum(
            not v.hypotheses_hold and not v.conclusion_holds for v in verdicts),
    }


def vertices(poly):
    """A polygon's vertices as a tuple of Fraction pairs."""
    return tuple((Fraction(x, poly.scale), Fraction(y, poly.scale)) for x, y in poly.points)


def square(cx, cy, half=0.5):
    """Axis-aligned open square polygon centered at (cx, cy)."""
    return ConvexPolygon(
        (
            (cx - half, cy - half),
            (cx + half, cy - half),
            (cx + half, cy + half),
            (cx - half, cy + half),
        )
    )


def subfamily(family, indices):
    """The members at ``indices`` (sorted, deduplicated), keeping their labels."""
    idx = sorted(set(indices))
    if not idx:
        raise ContractViolation("index set must be nonempty")
    return PolygonFamily(
        tuple(family.members[i] for i in idx),
        tuple(family.labels[i] for i in idx),
    )


def _placement_allowed(candidate, existing, disjointness) -> bool:
    if disjointness is None:
        return True
    if disjointness == "pairwise_disjoint":
        return not any(_interiors_overlap(verts, candidate) for verts in existing)
    if disjointness == "semipairwise_disjoint":
        return _placement_ok(candidate, existing)
    raise ContractViolation(f"unknown disjointness class {disjointness!r}")


def random_polygon_family(m: int, box=(-8.0, 8.0, -8.0, 8.0), size_range=(0.5, 1.5),
                          disjointness=None, seed: int = 0, n_points_range=(4, 12),
                          max_attempts: int = 4000) -> PolygonFamily:
    """Rejection-sample random convex polygons until the requested
    disjointness class holds; deterministic per seed."""
    if m < 1:
        raise ContractViolation("m must be >= 1")
    rng = random.Random(
        f"polygon-family:{m}:{box}:{size_range}:{disjointness}:{seed}:{n_points_range}"
    )
    members, scaled = [], []
    attempts = 0
    while len(members) < m:
        if attempts >= max_attempts:
            raise GenerationFailure(
                f"placed {len(members)}/{m} members after {attempts} attempts "
                f"(disjointness={disjointness!r}, box={box}, size_range={size_range})"
            )
        attempts += 1
        cx = rng.uniform(box[0], box[1])
        cy = rng.uniform(box[2], box[3])
        radius = rng.uniform(*size_range)
        n_points = rng.randint(*n_points_range)
        poly = random_convex_polygon(rng, (cx, cy), radius, n_points)
        verts = _at(poly, _GRID)
        if _placement_allowed(verts, scaled, disjointness):
            members.append(poly)
            scaled.append(verts)
    return PolygonFamily(tuple(members))


def lattice_family(m: int, seed: int) -> PolygonFamily:
    """m integer hulls of 3-6 random points in a 3x3 box each, the boxes
    centred near one random lattice line y = floor(a * x / 2) + c with x
    in [-4, 4]; deterministic per seed.  Members touch at edges and
    corners, share support lines, overlap and repeat, which members drawn
    near a circle and rounded to a fine lattice almost never do."""
    rng = random.Random(f"lattice-family:{m}:{seed}")
    a, c = rng.randint(-3, 3), rng.randint(-2, 2)
    members = []
    while len(members) < m:
        x = rng.randint(-4, 4)
        y = (a * x) // 2 + c + rng.randint(-1, 1)
        points = [(x + rng.randint(-1, 1), y + rng.randint(-1, 1))
                  for _ in range(rng.randint(3, 6))]
        hull = _convex_hull(points)
        if len(hull) >= 3:
            members.append(ConvexPolygon._lattice(tuple(hull), 1))
    return PolygonFamily(tuple(members))


@pytest.fixture
def grid6():
    return grid_complex(6)
