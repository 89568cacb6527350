"""The exact kernel of the transversal half: directions on the circle,
polygons, the pair-mask kernel and the disjointness class.

All sign decisions reduce to integer arithmetic: support sinusoids have the
polygon vertices themselves as coefficient pairs, every envelope transition
or feasibility root happens at a direction perpendicular to a difference of
two vertices, and evaluating a sinusoid at such a rational direction keeps
a common positive irrational factor that cancels from every comparison.
A polygon stores integer points over one positive scale, and a family
rescales its members to their least common scale.  The one float this
module reads is an input coordinate, which `_to_fraction` reads exactly.

Every such direction comes from a merge walk over two polygons' outward
normals, linear in their vertex counts: the directions where two members'
support functions cross give the envelope panel stops, and the zeros of the
support function of a pair's Minkowski difference give the pair's
feasibility roots.  Each polygon's walk form is built once, and -P's is
derived from P's.  From those roots alone the thm-321 kernel counts the
components of every subfamily, the whole family included.  All pairs'
roots and the axes form one cut of the circle, closed under negation: it
is sorted once over its U directions in the upper half, and -d sits at
index a + U when d sits at a, so each pair's roots are placed by index,
and where its own zeros sit among them fixes which runs are feasible.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import ContractViolation, InvariantViolation, ValidationError


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"coordinate must be a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"coordinate must be finite, got {value!r}")
        # exact decimal reading of the float's shortest repr
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse coordinate {value!r}") from exc
    raise ValidationError(f"coordinate must be a number or 'p/q' string, got {value!r}")


# ---------------------------------------------------------------------------
# exact direction arithmetic (primitive integer vectors on the circle)

def _primitive(x: int, y: int) -> tuple:
    g = gcd(abs(x), abs(y))
    return (x // g, y // g)


def _cross(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]

def _neg(d):
    return (-d[0], -d[1])


def _upper_half(d) -> bool:
    """Canonical representative test for the quotient circle: angle in [0, pi)."""
    return d[1] > 0 or (d[1] == 0 and d[0] > 0)


def _sort_directions(dirs):
    """Distinct primitive directions in circular order from (1, 0).

    Counterclockwise, -x/y grows within each open half-plane y > 0 and
    y < 0, so the key is the half and then floor(-x * k / y) with
    k = (max |y|)**2.  Two distinct primitive directions in one half have
    slopes at least 1/|y1 * y2| >= 1/k apart, so k times their slopes are
    at least 1 apart and their floors differ: the integer key is exact."""
    dirs = set(dirs)
    k = max((abs(y) for _, y in dirs), default=0) ** 2

    def key(d):
        x, y = d
        if y > 0:
            return (1, (-x * k) // y)
        if y < 0:
            return (3, (-x * k) // y)
        return (0, 0) if x > 0 else (2, 0)

    return sorted(dirs, key=key)


def _strictly_inside(p, q, r) -> bool:
    """r strictly inside the arc from p to q, valid for arcs narrower than pi."""
    return _cross(p, r) > 0 and _cross(r, q) > 0


# ---------------------------------------------------------------------------
# polygons

@dataclass(frozen=True, init=False)
class ConvexPolygon:
    """An open bounded convex region, stored as a strictly convex CCW cycle
    of integer ``points`` over a positive ``scale`` in lowest terms: the
    vertices are points / scale.  The region is the interior.

    ``ConvexPolygon(vertices)`` takes a list or tuple of (x, y) pairs, each
    a list or tuple, and parses their rational coordinates; generated
    hulls enter through `_lattice`, and both run the one convexity check.
    Lowest terms make the form canonical, so equal polygons are equal
    vertex cycles."""

    points: tuple
    scale: int

    def __init__(self, vertices):
        if not isinstance(vertices, (list, tuple)) or not all(
            isinstance(v, (list, tuple)) and len(v) == 2 for v in vertices
        ):
            raise ValidationError("bad vertex list")
        verts = tuple((_to_fraction(x), _to_fraction(y)) for x, y in vertices)
        scale = lcm(*(c.denominator for v in verts for c in v))
        self._set_lattice(tuple((int(x * scale), int(y * scale)) for x, y in verts), scale)

    @classmethod
    def _lattice(cls, points: tuple, scale: int) -> "ConvexPolygon":
        """The polygon with vertices points / scale, for integer points."""
        self = object.__new__(cls)
        self._set_lattice(points, scale)
        return self

    def _set_lattice(self, points: tuple, scale: int):
        if len(points) < 3:
            raise ValidationError("a polygon needs at least 3 vertices")
        # a common positive scale keeps the turns' signs; vertex k turns e to f
        (ax, ay), (bx, by) = points[-1], points[0]
        ex, ey = bx - ax, by - ay
        for k, (cx, cy) in enumerate(points[1:] + points[:1], 1):
            fx, fy = cx - bx, cy - by
            if ex * fy - ey * fx <= 0:
                raise ValidationError(
                    "vertices must be strictly convex in counterclockwise order "
                    f"(violated at vertex {k})"
                )
            ex, ey, bx, by = fx, fy, cx, cy
        g = gcd(scale, *itertools.chain.from_iterable(points))
        if g > 1:
            points, scale = tuple((x // g, y // g) for x, y in points), scale // g
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "scale", scale)


def _at(poly: ConvexPolygon, scale: int) -> tuple:
    """A polygon's vertices times ``scale``, a multiple of its own scale,
    as integer pairs."""
    if scale == poly.scale:
        return poly.points
    k = scale // poly.scale
    return tuple((x * k, y * k) for x, y in poly.points)


@dataclass(frozen=True)
class PolygonFamily:
    members: tuple
    labels: tuple = ()

    def __post_init__(self):
        if len(self.members) < 1:
            raise ContractViolation("a polygon family needs at least one member")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"P{i + 1}" for i in range(len(self.members)))
            )
        if len(self.labels) != len(self.members):
            raise ValidationError("labels and members must have the same length")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("member labels must be unique")

    @property
    def size(self) -> int:
        return len(self.members)

    @functools.cached_property
    def _int_data(self):
        """The members' least common scale and their vertices times it."""
        scale = lcm(*(poly.scale for poly in self.members))
        return scale, tuple(_at(poly, scale) for poly in self.members)

    @functools.cached_property
    def _kernel(self):
        """The pair-mask kernel `_pair_masks(self)`, built once."""
        return _pair_masks(self)


def _convex_hull(points):
    """Strictly convex hull, CCW from the least point; collinear points are dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    hull, floor = [], 2
    for chain in (pts, pts[-2::-1]):
        for p in chain:
            px, py = p
            while len(hull) >= floor:
                (ox, oy), (ax, ay) = hull[-2], hull[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                hull.pop()
            hull.append(p)
        floor = len(hull) + 1
    hull.pop()  # the upper chain ends at the first point
    return hull


def _walk_form(verts) -> tuple:
    """A polygon as the merge walk reads it: the vertices from the lowest
    (then leftmost) one on, so that the edge directions turn through one
    full circle from angle 0, and each edge vector.  Edge k's outward
    normal is (ey, -ex); vertex k supports every direction in the closed
    arc from normal k - 1 to normal k."""
    keys = [(y, x) for x, y in verts]
    start = keys.index(min(keys))
    verts = verts[start:] + verts[:start]
    return verts, [(wx - vx, wy - vy) for (vx, vy), (wx, wy) in zip(verts, verts[1:] + verts[:1])]


def _negated_form(form) -> tuple:
    """The walk form of -P from the walk form of P.  Negation turns every
    edge and normal by pi and keeps their cyclic order, so -P's walk opens
    at the negation of P's first edge whose angle is at least pi; that
    edge leaves P's highest (then rightmost) vertex, whose negation is the
    lowest (then leftmost) vertex of -P."""
    verts, edges = form
    k = 0
    for ex, ey in edges:
        if ey < 0 or (ey == 0 and ex < 0):
            break
        k += 1
    return (
        tuple([(-x, -y) for x, y in verts[k:] + verts[:k]]),
        [(-x, -y) for x, y in edges[k:] + edges[:k]],
    )


def _walk_zeros(f_form, g_form, sign: int) -> list:
    """Every direction t at which h_F(t) + sign * h_G(t) = 0, with h the
    support function of the polygon of each walk form.

    The walk merges the outward normals of F and G in circular order, as in
    the linear-time Minkowski sum.  Between two consecutive merged normals p
    and q the supporting vertices f and g are fixed, so the function is
    x.t with x = f + sign * g.  An arc is narrower than pi, so x.t vanishes
    on [p, q) at most at one of +-perp(x): at p, or strictly inside where
    x.p and x.q have opposite signs.  If x = 0 the function vanishes on the
    whole arc, and both its endpoints are zeros.  Every value is an integer.
    The supporting vertices of both arcs that meet at q support q, so x.q
    is also the next arc's value at its p: one dot product per arc.  Past
    q the walk advances f, g or both along the edges whose normal q is, so
    x moves by f's edge, by sign times g's, or by both.  Normals are edges
    turned by -pi/2; signs need no gcd, so only reported zeros take one.
    """
    out = []
    fv, fe = f_form
    gv, ge = g_form
    nf, ng = len(fe), len(ge)
    # the first arc opens at the later of the two last normals
    (ax, ay), (bx, by) = fe[-1], ge[-1]
    px, py = (by, -bx) if ax * by - ay * bx >= 0 else (ay, -ax)
    (fx, fy), (gx, gy) = fv[0], gv[0]
    xx, xy = fx + sign * gx, fy + sign * gy
    at_p = xx * px + xy * py
    i = j = 0
    while i < nf or j < ng:
        if j == ng:
            turn = 1
            ax, ay = fe[i]
        elif i == nf:
            turn = -1
            bx, by = ge[j]
        else:
            (ax, ay), (bx, by) = fe[i], ge[j]
            turn = ax * by - ay * bx
        if turn >= 0:
            qx, qy = ay, -ax
        else:
            qx, qy = by, -bx
        at_q = xx * qx + xy * qy
        if at_p == 0:
            out.append(_primitive(px, py))
            if xx == 0 and xy == 0:
                out.append(_primitive(qx, qy))
        elif at_q != 0 and (at_p > 0) != (at_q > 0):
            # perp(x) / gcd, turned to the side of p it lies past
            g = gcd(xx, xy)
            rx, ry = -xy // g, xx // g
            out.append((rx, ry) if px * ry - py * rx > 0 else (-rx, -ry))
        if turn >= 0:
            i += 1
            xx += ax
            xy += ay
        if turn <= 0:
            j += 1
            xx += sign * bx
            xy += sign * by
        px, py, at_p = qx, qy, at_q
    return out


# ---------------------------------------------------------------------------
# the pair-mask kernel: components of every subfamily

def _pair_masks(family: PolygonFamily) -> tuple:
    """The pair-arc kernel: every pair's feasible direction set as a bitset
    over one common cut of the circle, returned as (full, {(i, j): mask}).

    Pair (i, j) is feasible at t iff h_K(t) > 0 and h_K(-t) > 0, where
    h_K = max_i - min_j is the support function of the Minkowski
    difference K = P_i - P_j.  The zeros Z of h_K come from one merge walk
    over the normals of P_i and -P_j, so the pair's own roots Z and -Z hold
    every direction where its feasibility can change.  All pairs' roots and
    the four axes cut the circle into point elements and open gaps; bit e
    of a pair's mask says whether element e is feasible, and ``full`` has
    every element's bit set.  The cut is closed under negation, so it is
    sorted once, over its U directions in the upper half (y > 0, or y = 0
    and x > 0): root a < U is one of those, and -roots[a] is root a + U.

    A pair is infeasible at each of its own roots, where h_K vanishes at t
    or at -t, and K has interior, so h_K vanishes only where a support line
    of K passes through 0.  The root count tells the contact apart:
    - 0 roots: 0 lies inside K (the interiors overlap); h_K never
      vanishes and h_K(t) + h_K(-t) > 0, so h_K > 0 and the mask is full;
    - 2 roots n and -n: 0 lies inside an edge of K with outward normal n
      (the members touch at an edge point); h_K > 0 off n, so the pair
      fails only at the two point elements;
    - 4 roots: 0 is a vertex of K or lies outside K, and the zeros Z bound
      an arc A narrower than pi on which h_K <= 0.  In circular order the
      roots are then z, z', -z, -z' with Z = {z, z'}, so the two roots of Z
      are adjacent, and the runs between the 4 roots alternate: A and -A
      fail, the two runs between them pass.  The phase follows from where
      Z sits: the roots are a < b < a + U < b + U, and the run from a to b
      fails iff a and b are both in Z or both in -Z, that is iff both
      zeros lie in one half.  Two distinct zeros among four roots closed
      under negation are always adjacent, so a pair whose Z is not exactly
      two directions raises `InvariantViolation`.
    Any other count raises `InvariantViolation` too.  A 2-root pair is
    evaluated on the gaps on both sides of one root, which must pass: a
    4-root pair that lost a zero fails on one of them.  (An edge contact
    that lost its zero would read as an overlap; only an evaluation at n
    itself could tell.)

    Each polygon has one walk form; -P_j's is `_negated_form` of P_j's,
    built for every member but the first, which is never second in a pair.
    """
    _, polys = family._int_data
    m = len(polys)
    forms = [_walk_form(verts) for verts in polys]
    negated = [None] + [_negated_form(form) for form in forms[1:]]
    own = {}
    cut = set()
    for i, j in itertools.combinations(range(m), 2):
        own[(i, j)] = zeros = _walk_zeros(forms[i], negated[j], 1)
        cut.update(zeros)
    # one direction of each +- pair of the cut, as `_upper_half` picks it
    half = _sort_directions(
        [(x, y) if y > 0 or (y == 0 and x > 0) else (-x, -y) for x, y in cut]
        + [(1, 0), (0, 1)]
    )
    u = len(half)
    roots = half + [(-x, -y) for x, y in half]
    n_roots = 2 * u
    full = (1 << (2 * n_roots)) - 1
    at = dict(zip(roots, range(n_roots)))
    # times a bitset of the upper half's elements, adds its copy U roots on
    spread = 1 + (1 << (2 * u))

    def feasible_after(i, j, a):
        # root a is element 2a and the open gap after it element 2a + 1
        # (a = -1 is the last gap); the axes keep every gap under pi/2, so
        # the sum of a gap's endpoints lies strictly inside it.  Only the
        # side checks of a 2-root pair evaluate.
        p, q = roots[a], roots[(a + 1) % n_roots]
        tx, ty = p[0] + q[0], p[1] + q[1]
        si = [x * tx + y * ty for x, y in polys[i]]
        sj = [x * tx + y * ty for x, y in polys[j]]
        return max(si) > min(sj) and max(sj) > min(si)

    pair_masks = {}
    for (i, j), zeros in own.items():
        ks = {at[d] for d in zeros}
        if len(ks) == 2:
            z, w = ks
            # root k and its antipode, (k + U) mod 2U, share k mod U
            a, b = z % u, w % u
            if a != b:
                # 4 roots a < b < a + U < b + U and 2 zeros: root a (or b)
                # holds a zero iff that zero lies in the upper half
                if a > b:
                    a, b = b, a
                # the runs from a to b and from a + U to b + U: elements
                # 2a + 1 .. 2b - 1 and their copy U roots on
                arc = ((1 << (2 * b)) - (1 << (2 * a + 1))) * spread
                if (z < u) != (w < u):
                    pair_masks[(i, j)] = arc
                else:
                    points = ((1 << (2 * a)) | (1 << (2 * b))) * spread
                    pair_masks[(i, j)] = full ^ arc ^ points
                continue
        reps = sorted({k % u for k in ks})
        if not reps:
            pair_masks[(i, j)] = full
        elif len(reps) == 1:
            a = reps[0]
            if not (feasible_after(i, j, a) and feasible_after(i, j, a - 1)):
                raise InvariantViolation(
                    f"pair {[i, j]} has 2 roots but is infeasible beside one"
                )
            pair_masks[(i, j)] = full ^ ((1 << (2 * a)) * spread)
        elif len(reps) == 2:
            raise InvariantViolation(
                f"pair {[i, j]} has 4 roots but {len(ks)} zeros, "
                "not 2 adjacent ones"
            )
        else:
            raise InvariantViolation(
                f"pair {[i, j]} has {2 * len(reps)} roots, not 0, 2 or 4"
            )
    return full, pair_masks


@functools.cache
def _pairs_of(subset: tuple) -> tuple:
    """A subfamily's index pairs, kept across calls: a sweep checks the
    same subfamilies in every trial, 22 of them at m = 6 and 793 at m = 11."""
    return tuple(itertools.combinations(subset, 2))


def _subfamily_counts(kernel: tuple, subsets) -> list:
    """Exact quotient component counts of the transversal spaces of many
    subfamilies of one family (each an index tuple), from the pair masks
    ``kernel`` = `_pair_masks(family)`.

    At a fixed direction the offsets that meet a member form an open
    interval, and open intervals on a line share a point iff every two of
    them do (Helly's theorem on the line): a subfamily's feasible direction
    set is the intersection of its pairs' sets, so its bitset is the AND of
    its pairs' masks.  ``components(transversal_profile(...))`` is the
    oracle for this count.
    """
    full, pair_masks = kernel
    n = full.bit_length()
    counts = []
    for subset in subsets:
        mask = full
        for pair in _pairs_of(subset):
            mask &= pair_masks[pair]
        if mask == full:
            counts.append(1)
            continue
        # a run starts at element e when e is feasible and e - 1 is not
        prev = ((mask << 1) | (mask >> (n - 1))) & full
        starts = (mask & ~prev).bit_count()
        if starts % 2:
            raise InvariantViolation("feasible arcs must come in antipodal pairs")
        counts.append(starts // 2)
    return counts


# ---------------------------------------------------------------------------
# disjointness classification (exact separating-axis tests on open interiors)

def _interiors_overlap(verts_a, verts_b) -> bool:
    """Open interiors intersect; touching boundaries count as disjoint.

    They intersect iff 0 is interior to A - B, whose edge normals are the
    outward normals of A and of -B.  A CCW edge of A from v has outward
    normal n with max over A of n.p equal to n.v, so it separates iff
    every vertex of B has n.p >= n.v; the edges of B act alike on A."""
    for verts, other in ((verts_a, verts_b), (verts_b, verts_a)):
        vx, vy = verts[-1]
        for wx, wy in verts:
            nx, ny = wy - vy, vx - wx
            c = nx * vx + ny * vy
            for x, y in other:
                if nx * x + ny * y < c:
                    break
            else:
                return False
            vx, vy = wx, wy
    return True


def polygons_disjoint(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    scale = lcm(a.scale, b.scale)
    return not _interiors_overlap(_at(a, scale), _at(b, scale))


def disjointness_class(family: PolygonFamily) -> str:
    """'pairwise_disjoint', 'semipairwise_disjoint' (among any three members
    some two are disjoint), or 'neither'.

    Two interiors meet iff 0 is interior to P_i - P_j, iff the pair's walk
    finds no roots, iff its mask in the family's pair-mask kernel is full.
    The separating-axis test `_interiors_overlap` checks exactly those
    pairs, in `itertools.combinations` order: a full pair that it calls
    disjoint raises `InvariantViolation`, so no semipairwise-disjoint
    triple has the full circle, as lemma-313 requires.  A pairwise-disjoint
    family makes no separating-axis call."""
    _, polys = family._int_data
    full, pair_masks = family._kernel
    overlap = [pair for pair, mask in pair_masks.items() if mask == full]
    for i, j in overlap:
        if not _interiors_overlap(polys[i], polys[j]):
            raise InvariantViolation(
                f"pair {[i, j]} has the full circle of transversal directions "
                "but disjoint interiors"
            )
    if not overlap:
        return "pairwise_disjoint"
    # a triple i < j < k whose three pairs all overlap
    pairs = set(overlap)
    triple = any((i, k) in pairs for i, j in overlap for j2, k in overlap if j2 == j)
    return "neither" if triple else "semipairwise_disjoint"


def _placement_ok(candidate, existing) -> bool:
    """The candidate (integer vertices) keeps the placed members
    semipairwise disjoint: no two members it overlaps overlap each other."""
    overlaps = [i for i, verts in enumerate(existing) if _interiors_overlap(verts, candidate)]
    for a in range(len(overlaps)):
        for b in range(a + 1, len(overlaps)):
            if _interiors_overlap(existing[overlaps[a]], existing[overlaps[b]]):
                return False
    return True
