"""Random polygons and polygon families, deterministic per seed.

The generators draw on the 1/_GRID lattice and rejection-sample only for
semipairwise disjointness, the class thm-321 needs.
"""

from __future__ import annotations

import math
import random

from .errors import ContractViolation, GenerationFailure
from .transversal_kernel import (
    ConvexPolygon, PolygonFamily, _at, _convex_hull, _placement_ok, polygons_disjoint,
)

# random polygons have coordinates on the 1/_GRID lattice
_GRID = 10 ** 4
# random_stabbed_family's member spacing, size and vertex draws
_STAB_SPACING, _STAB_SIZE, _STAB_POINTS = 3.0, 0.9, (4, 10)
_PAIR_RADII = (0.5, 1.5)  # random_disjoint_pair's member radii


def random_convex_polygon(rng: random.Random, center, radius: float,
                          n_points: int) -> ConvexPolygon:
    """Hull of random near-circle points, rounded to the 1/_GRID lattice."""
    cx, cy = center
    unit, cos, sin, tau = rng.random, math.cos, math.sin, math.tau
    for _ in range(64):
        pts = []
        for _ in range(max(n_points, 3)):
            # rng.uniform(0.0, tau) computes 0.0 + tau * rng.random()
            ang = tau * unit()
            rr = radius * (0.72 + 0.28 * unit())
            x = cx + rr * cos(ang)
            y = cy + rr * sin(ang)
            pts.append((round(x * _GRID), round(y * _GRID)))
        # on one grid the integer points order and turn as the rationals do
        hull = _convex_hull(pts)
        if len(hull) >= 3:
            return ConvexPolygon._lattice(tuple(hull), _GRID)
    raise GenerationFailure("could not build a non-degenerate polygon")


def random_disjoint_pair(seed: int) -> tuple:
    """Two polygons with disjoint interiors, deterministic per seed."""
    rng = random.Random(f"disjoint-pair:{seed}:{_PAIR_RADII}")
    for _ in range(200):
        r1 = rng.uniform(*_PAIR_RADII)
        r2 = rng.uniform(*_PAIR_RADII)
        a = random_convex_polygon(rng, (rng.uniform(-2, 2), rng.uniform(-2, 2)), r1,
                                  rng.randint(3, 16))
        ang = rng.uniform(0.0, math.tau)
        dist = (r1 + r2) * rng.uniform(1.05, 3.0)
        ax = sum(x / a.scale for x, _ in a.points) / len(a.points)
        ay = sum(y / a.scale for _, y in a.points) / len(a.points)
        b = random_convex_polygon(
            rng, (ax + dist * math.cos(ang), ay + dist * math.sin(ang)), r2,
            rng.randint(3, 16)
        )
        if polygons_disjoint(a, b):
            return a, b
    raise GenerationFailure("could not place a disjoint pair")


def random_stabbed_family(m: int, seed: int, jitter: float) -> PolygonFamily:
    """Semipairwise-disjoint family whose members sit near a random line.

    The jitter parameter moves members off the common line; small values
    make the size-4/size-5 transversal hypotheses likely, larger values
    produce instances that fail them.
    """
    if m < 1:
        raise ContractViolation("m must be >= 1")
    rng = random.Random(f"stabbed-family:{m}:{seed}:{jitter}:{_STAB_SPACING}:{_STAB_SIZE}")
    unit, getrandbits = rng.random, rng.getrandbits
    # rng.uniform(a, b) computes a + (b - a) * rng.random(), and
    # rng.randint(lo, hi) adds lo to the first getrandbits(bits) draw below
    # hi - lo + 1; the draws below inline both
    lo, hi = _STAB_POINTS
    n_span = hi - lo + 1
    bits = n_span.bit_length()
    phi = math.pi * unit()
    ux, uy = math.cos(phi), math.sin(phi)
    px, py = -uy, ux
    members, scaled = [], []
    for k in range(m):
        base = (k - (m - 1) / 2.0) * _STAB_SPACING
        for _ in range(60):
            along = base + (-0.25 + 0.5 * unit()) * _STAB_SPACING
            off = -jitter + 2 * jitter * unit()
            center = (along * ux + off * px, along * uy + off * py)
            radius = _STAB_SIZE * (0.55 + (1.0 - 0.55) * unit())
            n = getrandbits(bits)
            while n >= n_span:
                n = getrandbits(bits)
            poly = random_convex_polygon(rng, center, radius, lo + n)
            verts = _at(poly, _GRID)
            if _placement_ok(verts, scaled):
                members.append(poly)
                scaled.append(verts)
                break
        else:
            raise GenerationFailure(f"could not place member {k + 1} of a stabbed family")
    return PolygonFamily(tuple(members))
