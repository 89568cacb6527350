"""Exact computation of the space of line transversals to open convex
polygons in the plane.

A line is parametrized as {x : x.(cos t, sin t) = p} with direction-normal
angle t and offset p, under the identification (t, p) ~ (t + pi, -p).  The
line meets an open polygon exactly when p lies strictly between the two
support values of the polygon in direction t, so the transversal space of a
family fibers over the circle of directions with open-interval fibers: its
topology is the topology of the set of feasible directions in the quotient
circle.  Components of that set give b0; the set being the whole circle
gives b1 = 1 (and is the expected picture for a single polygon, whose
transversal space retracts to the circle of line directions).

All sign decisions reduce to integer arithmetic: support sinusoids have the
polygon vertices themselves as coefficient pairs, every envelope transition
or feasibility root happens at a direction perpendicular to a difference of
two vertices, and evaluating a sinusoid at such a rational direction keeps
a common positive irrational factor that cancels from every comparison.
A polygon stores integer points over one positive scale, and a family
rescales its members to their least common scale.

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
So a thm-321 sweep builds no envelope profile; a verdict builds the whole
family's profile only when its witness is read, and checks it against the
kernel, and lists its checks only when they are read.

Each statement is a row of TRANSVERSALS, the lemma rows data for one lemma
verifier, and `verify_transversal(tag, family)` evaluates a row.

The random generators draw on the 1/_GRID lattice and rejection-sample
only for semipairwise disjointness, the class thm-321 needs.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    ContractViolation,
    GenerationFailure,
    InvariantViolation,
    ValidationError,
)
from .sweeps import SweepReport, tally_sweep, theorem_row

TWO_PI = 2.0 * math.pi

# random polygons have coordinates on the 1/_GRID lattice
_GRID = 10 ** 4
# random_stabbed_family's member spacing, size and vertex draws
_STAB_SPACING, _STAB_SIZE, _STAB_POINTS = 3.0, 0.9, (4, 10)
_PAIR_RADII = (0.5, 1.5)  # random_disjoint_pair's member radii

# feasible arcs or gaps narrower than this (radians) get a degeneracy flag:
# a sampling oracle may misread the component count near such features
NARROW_FEATURE_WIDTH = 1e-2
# tan(NARROW_FEATURE_WIDTH) rounded up to ten significant digits: the exact
# bound `_narrow` compares an arc's turn with
_NARROW_TAN = Fraction(1000033335, 10 ** 11)


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


def _narrow(p, q) -> bool:
    """The counterclockwise arc from direction p to direction q is narrower
    than NARROW_FEATURE_WIDTH.  An arc below pi/2 turns by the angle whose
    tangent is cross(p, q) / dot(p, q), so the test compares that ratio
    with `_NARROW_TAN` in integers; q = p is an arc of width 0."""
    cross, dot = _cross(p, q), _dot(p, q)
    return (cross >= 0 and dot > 0
            and cross * _NARROW_TAN.denominator < dot * _NARROW_TAN.numerator)


def _angle(d) -> float:
    return math.atan2(d[1], d[0]) % TWO_PI


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
        n = len(points)
        if n < 3:
            raise ValidationError("a polygon needs at least 3 vertices")
        # a common positive scale keeps the signs of the rational turns
        triples = zip(points, points[1:] + points[:1], points[2:] + points[:2])
        for i, ((ax, ay), (bx, by), (cx, cy)) in enumerate(triples):
            if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) <= 0:
                raise ValidationError(
                    "vertices must be strictly convex in counterclockwise order "
                    f"(violated at vertex {i + 1})"
                )
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


def _walk_form(verts) -> tuple:
    """A polygon as the merge walk reads it: the vertices from the lowest
    (then leftmost) one on, so that the edge directions turn through one
    full circle from angle 0, each edge vector, and each edge's primitive
    outward normal.  Vertex k supports every direction in the closed arc
    from normal k - 1 to normal k."""
    keys = [(y, x) for x, y in verts]
    start = keys.index(min(keys))
    verts = verts[start:] + verts[:start]
    edges, normals = [], []
    vx, vy = verts[0]
    for wx, wy in verts[1:] + verts[:1]:
        ex, ey = wx - vx, wy - vy
        g = gcd(ex, ey)
        edges.append((ex, ey))
        normals.append((ey // g, -ex // g))
        vx, vy = wx, wy
    return verts, edges, normals


def _negated_form(form) -> tuple:
    """The walk form of -P from the walk form of P.  Negation turns every
    edge and normal by pi and keeps their cyclic order, so -P's walk opens
    at the negation of P's first edge whose angle is at least pi; that
    edge leaves P's highest (then rightmost) vertex, whose negation is the
    lowest (then leftmost) vertex of -P."""
    verts, edges, normals = form
    k = 0
    for ex, ey in edges:
        if ey < 0 or (ey == 0 and ex < 0):
            break
        k += 1
    return (
        tuple([(-x, -y) for x, y in verts[k:] + verts[:k]]),
        [(-x, -y) for x, y in edges[k:] + edges[:k]],
        [(-x, -y) for x, y in normals[k:] + normals[:k]],
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
    x moves by f's edge, by sign times g's, or by both.
    """
    out = []
    fv, fe, fn = f_form
    gv, ge, gn = g_form
    nf, ng = len(fe), len(ge)
    # the first arc opens at the later of the two last normals
    (ax, ay), (bx, by) = fe[-1], ge[-1]
    px, py = gn[-1] if ax * by - ay * bx >= 0 else fn[-1]
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
        qx, qy = fn[i] if turn >= 0 else gn[j]
        at_q = xx * qx + xy * qy
        if at_p == 0:
            out.append((px, py))
            if xx == 0 and xy == 0:
                out.append((qx, qy))
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


def _climb(verts, k, dx, dy) -> tuple:
    """Index and value of the maximum of v.d over a convex polygon's
    vertices, walking counterclockwise from index k, which must lie on the
    rising chain toward the maximum."""
    n = len(verts)
    x, y = verts[k]
    val = x * dx + y * dy
    while True:
        j = k + 1 if k + 1 < n else 0
        x, y = verts[j]
        nxt = x * dx + y * dy
        if nxt <= val:
            return k, val
        k, val = j, nxt


# ---------------------------------------------------------------------------
# the exact envelope sweep

@dataclass(frozen=True)
class Panel:
    """One arc of the direction circle on which both envelopes are a single
    vertex sinusoid each; the feasibility sign is constant on the open arc."""

    start: tuple
    end: tuple
    upper_member: int
    upper_vertex: tuple  # scaled integer coordinates
    lower_member: int
    lower_vertex: tuple
    feasible_sign: int

    @property
    def start_angle(self) -> float:
        return _angle(self.start)

    @property
    def end_angle(self) -> float:
        return _angle(self.end)


@dataclass(frozen=True)
class TransversalProfile:
    """Piecewise-sinusoid envelopes of the transversal offset interval.

    ``panels`` tile the full direction circle in circular order; on each
    panel the upper envelope U (least max-support among members) and lower
    envelope L (greatest min-support) are single vertex sinusoids, and
    U(t) - L(t) has constant sign on the open arc.  ``boundary_signs[k]``
    is the exact feasibility sign at ``panels[k].start``.  The antipodal
    identification swaps the envelopes: L at the antipode of a panel is
    carried by that panel's upper vertex (and vice versa), which is the
    exact form of L(t + pi) = -U(t).
    """

    scale: int
    panels: tuple
    boundary_signs: tuple

    @property
    def breakpoints(self) -> tuple:
        return tuple(sorted(p.start_angle for p in self.panels))


def transversal_profile(family: PolygonFamily) -> TransversalProfile:
    """Exact piecewise structure of the transversal envelopes of a family.

    The panel stops are the base events (every member's argmax/argmin
    transitions, i.e. the outward edge normals and their negations) and
    every direction where two members' max supports cross, or their min
    supports do.  The max supports of members a and b cross on Z_h, the
    zeros of h_a - h_b, and the min supports on -Z_h.  Between two stops
    every member's argmax and argmin vertex is fixed, so each envelope is
    one vertex sinusoid.
    """
    scale, polys = family._int_data
    forms = [_walk_form(verts) for verts in polys]

    events = set()
    for _, _, normals in forms:
        events.update(normals)
        events.update(_neg(d) for d in normals)
    crossings = set()
    for form_a, form_b in itertools.combinations(forms, 2):
        crossings.update(_walk_zeros(form_a, form_b, -1))
    stops = _sort_directions(events | crossings | {_neg(d) for d in crossings})
    # the panel list opens at the first base event from (1, 0) on
    first = next(k for k, d in enumerate(stops) if d in events)
    stops = stops[first:] + stops[:first]

    # every member's argmax and argmin vertex index, each the argmax of
    # v.d for d = t or -t: on a convex polygon both only advance
    # counterclockwise as t does, and t never sits on a normal
    tx, ty = stops[0][0] + stops[1][0], stops[0][1] + stops[1][1]
    up_at = [max(range(len(v)), key=lambda k: v[k][0] * tx + v[k][1] * ty) for v in polys]
    lo_at = [min(range(len(v)), key=lambda k: v[k][0] * tx + v[k][1] * ty) for v in polys]

    panels = []
    n_stops = len(stops)
    for idx in range(n_stops):
        s0 = stops[idx]
        s1 = stops[(idx + 1) % n_stops]
        tx, ty = s0[0] + s1[0], s0[1] + s1[1]
        # the upper envelope is the least max support and the lower the
        # greatest min support, the first such member on ties
        u_member = l_member = None
        for i, verts in enumerate(polys):
            up_at[i], hi = _climb(verts, up_at[i], tx, ty)
            lo_at[i], neg_lo = _climb(verts, lo_at[i], -tx, -ty)
            if u_member is None or hi < least_hi:
                u_member, least_hi = i, hi
            if l_member is None or neg_lo < least_neg_lo:
                l_member, least_neg_lo = i, neg_lo
        vu = polys[u_member][up_at[u_member]]
        vl = polys[l_member][lo_at[l_member]]
        w = (vu[0] - vl[0], vu[1] - vl[1])

        # split at the feasibility root, if it falls inside
        pieces = [(s0, s1)]
        if w != (0, 0):
            r = _primitive(-w[1], w[0])
            for root in (r, _neg(r)):
                if _strictly_inside(s0, s1, root):
                    pieces = [(s0, root), (root, s1)]
                    break
        for a0, a1 in pieces:
            t3 = (a0[0] + a1[0], a0[1] + a1[1])
            diff = _dot(w, t3)
            sign = (diff > 0) - (diff < 0)
            panels.append(Panel(a0, a1, u_member, vu, l_member, vl, sign))

    # the envelopes are continuous, so at a panel's start they take the
    # values of the panel's own vertex sinusoids
    boundary_signs = []
    for p in panels:
        diff = _dot(p.upper_vertex, p.start) - _dot(p.lower_vertex, p.start)
        boundary_signs.append((diff > 0) - (diff < 0))
    return TransversalProfile(scale, tuple(panels), tuple(boundary_signs))


# ---------------------------------------------------------------------------
# component counting in the quotient circle

@dataclass(frozen=True)
class ComponentSummary:
    """Connectivity of the transversal space, reduced modulo t -> t + pi.

    ``feasible_arcs`` lists maximal open direction arcs (start, end) with
    start in [0, pi); end may exceed pi, meaning the arc wraps in the
    quotient.  ``full_circle`` means every direction admits a transversal,
    the circle-like case with (b0, b1) = (0, 1); otherwise every component
    is contractible and b1 = 0.
    """

    component_count: int
    full_circle: bool
    feasible_arcs: tuple
    flags: tuple = ()
    min_arc_width: object = None
    min_gap_width: object = None
    method: str = "exact"
    resolution: object = None

    @property
    def nonempty(self) -> bool:
        return self.component_count >= 1

    def betti(self) -> dict:
        return {
            "nonempty": self.nonempty,
            "b0": max(self.component_count - 1, 0),
            "b1": 1 if self.full_circle else 0,
        }

    def to_dict(self) -> dict:
        # exact results: endpoints are float conversions of exact integer
        # directions, so the stated error covers only that conversion;
        # sampled results are accurate to one sampling step
        if self.method == "exact":
            angle_error = 1e-12
        else:
            angle_error = math.pi / self.resolution
        return {
            "component_count": self.component_count,
            "full_circle": self.full_circle,
            "feasible_arcs": [{"start": s, "end": e} for (s, e) in self.feasible_arcs],
            "angle_error_bound": angle_error,
            "betti": self.betti(),
            "flags": [dict(f) for f in self.flags],
            "min_arc_width": self.min_arc_width,
            "min_gap_width": self.min_gap_width,
            "method": self.method,
            "resolution": self.resolution,
        }


def _cyclic_runs(flags) -> list:
    """(first, last) index of every maximal run of true flags on a cycle,
    in order from the first false flag on; a run that wraps past index 0
    has last < first.  At least one flag must be false."""
    n = len(flags)
    start_at = flags.index(False)
    runs, first = [], None
    for off in range(1, n + 1):
        i = (start_at + off) % n
        if flags[i]:
            if first is None:
                first = i
        elif first is not None:
            runs.append((first, (i - 1) % n))
            first = None
    return runs


def components(profile: TransversalProfile) -> ComponentSummary:
    """Exact connectivity of the feasible direction set in the quotient circle."""
    panels = profile.panels
    bsigns = profile.boundary_signs
    n = len(panels)

    flags = []
    for i in range(n):
        if panels[i].feasible_sign == 0:
            flags.append(
                (("kind", "coincident_support_arc"), ("angle", panels[i].start_angle))
            )
        if bsigns[i] == 0 and panels[i - 1].feasible_sign > 0 and panels[i].feasible_sign > 0:
            flags.append((("kind", "tangent_direction"), ("angle", panels[i].start_angle)))

    # the circle alternates boundary points and open panel arcs
    feas = []
    for i in range(n):
        feas.append(bsigns[i] > 0)
        feas.append(panels[i].feasible_sign > 0)

    if all(feas):
        return ComponentSummary(
            component_count=1,
            full_circle=True,
            feasible_arcs=((0.0, math.pi),),
            flags=tuple(flags),
            min_arc_width=math.pi,
            min_gap_width=None,
        )
    if not any(feas):
        return ComponentSummary(
            component_count=0,
            full_circle=False,
            feasible_arcs=(),
            flags=tuple(flags),
            min_arc_width=None,
            min_gap_width=math.pi,
        )

    def _element_panel(e):
        # feasible runs open and close on panel elements (odd indices)
        if e % 2 != 1:
            raise InvariantViolation("feasible run touches an isolated boundary point")
        return e // 2

    # each run is a counterclockwise arc from d0 to d1, in circular order
    arcs_full = []
    for first, last in _cyclic_runs(feas):
        d0 = panels[_element_panel(first)].start
        d1 = panels[_element_panel(last)].end
        a0 = _angle(d0)
        arcs_full.append((d0, d1, a0, (_angle(d1) - a0) % TWO_PI))

    count_full = len(arcs_full)
    if count_full % 2 != 0:
        raise InvariantViolation("feasible arcs must come in antipodal pairs")

    upper = [arc for arc in arcs_full if _upper_half(arc[0])]
    if len(upper) != count_full // 2:
        raise InvariantViolation("antipodal arc pairs must have one member in [0, pi)")
    # in the exact circular order of their starts, which all lie in [0, pi)
    order = {d: k for k, d in enumerate(_sort_directions(arc[0] for arc in upper))}
    upper.sort(key=lambda arc: order[arc[0]])
    quotient_arcs = tuple((a0, a0 + width) for _, _, a0, width in upper)

    # the gap after each arc runs from its end to the next arc's start
    following = arcs_full[1:] + arcs_full[:1]
    min_arc = min(width for _, _, _, width in arcs_full)
    min_gap = min(
        (next_a0 - (a0 + width)) % TWO_PI
        for (_, _, a0, width), (_, _, next_a0, _) in zip(arcs_full, following)
    )
    # the flags are decided exactly; their widths are the reported floats
    if any(_narrow(d0, d1) for d0, d1, _, _ in arcs_full):
        flags.append((("kind", "narrow_arc"), ("width", min_arc)))
    if any(_narrow(arc[1], nxt[0]) for arc, nxt in zip(arcs_full, following)):
        flags.append((("kind", "narrow_gap"), ("width", min_gap)))

    return ComponentSummary(
        component_count=count_full // 2,
        full_circle=False,
        feasible_arcs=quotient_arcs,
        flags=tuple(flags),
        min_arc_width=min_arc,
        min_gap_width=min_gap,
    )


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


@functools.lru_cache(maxsize=512)
def _pairs_of(subset: tuple) -> tuple:
    """A subfamily's index pairs, kept across calls: a sweep checks the
    same subfamilies in every trial, 22 of them at m = 6 and 463 at m = 10."""
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


def sample_oracle(family: PolygonFamily, resolution: int) -> ComponentSummary:
    """Brute-force cross-check: feasibility sampled at equally spaced
    directions in [0, pi), chained cyclically into arcs.  Approximate; used
    only to validate the exact computation."""
    if resolution < 8:
        raise ContractViolation("resolution must be >= 8")
    step = math.pi / resolution
    cs = [math.cos(i * step) for i in range(resolution)]
    sn = [math.sin(i * step) for i in range(resolution)]
    upper = [math.inf] * resolution
    lower = [-math.inf] * resolution
    for poly in family.members:
        # one row of support values per vertex, reduced column-wise
        rows = [
            [x * c + y * s for c, s in zip(cs, sn)]
            for x, y in ((x / poly.scale, y / poly.scale) for x, y in poly.points)
        ]
        upper = list(map(min, upper, map(max, *rows)))
        lower = list(map(max, lower, map(min, *rows)))
    feasible = [u > lo for u, lo in zip(upper, lower)]

    if all(feasible):
        return ComponentSummary(1, True, ((0.0, math.pi),), (), math.pi, None,
                                method="sampled", resolution=resolution)
    if not any(feasible):
        return ComponentSummary(0, False, (), (), None, math.pi,
                                method="sampled", resolution=resolution)

    out = []
    for first, last in _cyclic_runs(feasible):
        a0 = first * step
        width = ((last - first) % resolution + 1) * step
        out.append((a0, a0 + width))
    min_arc = min(e - s for s, e in out)
    return ComponentSummary(len(out), False, tuple(sorted(out)), (), min_arc, None,
                            method="sampled", resolution=resolution)


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


# ---------------------------------------------------------------------------
# lemma and theorem verifiers

@dataclass(frozen=True)
class LemmaVerdict:
    """A lemma has no hypotheses beyond its input's shape, which the
    verifier checks, so its conclusion is whether it passed."""

    lemma: str
    passed: bool
    expected: dict
    summary: ComponentSummary

    hypotheses_hold = True

    @property
    def conclusion_holds(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "passed": self.passed,
            "expected": self.expected,
            "observed": self.summary.to_dict(),
        }


def _lemma(tag: str, expected: dict, holds, disjoint_pair=None):
    """A lemma row's verifier: it passes when ``holds`` accepts the
    family's component summary.  ``disjoint_pair``, if given, is the error
    text for a family whose first two members' interiors intersect."""

    def verify(family: PolygonFamily) -> LemmaVerdict:
        if disjoint_pair is not None and not polygons_disjoint(*family.members[:2]):
            raise ContractViolation(disjoint_pair)
        summary = components(transversal_profile(family))
        return LemmaVerdict(tag, holds(summary), dict(expected), summary)

    return verify


# thm-321's hypothesis blocks, in the order its verdict reports them:
# (check name, subfamily size, test of each such subfamily's component count)
_THM321_BLOCKS = (
    ("size5_nonempty", 5, lambda count: count >= 1),
    ("size4_connected", 4, lambda count: count == 1),
)


@functools.lru_cache(maxsize=16)
def _thm321_checks(m: int) -> tuple:
    """(check name, subset, test) of every subfamily of an m-member family
    that `_THM321_BLOCKS` checks, each block in combinations order."""
    return tuple((check, subset, holds) for check, size, holds in _THM321_BLOCKS
                 for subset in itertools.combinations(range(m), size))


@dataclass(frozen=True)
class TransversalVerdict:
    """``counts`` holds the quotient component counts from the pair-mask
    kernel: every subfamily's that a block of `_THM321_BLOCKS` checks, in
    `_thm321_checks` order, then the whole family's.  ``disjointness`` is
    the family's `disjointness_class`.  ``checks`` lists them as the
    verdict reports them; ``witness`` recomputes the whole family's count
    from its own envelope profile and checks the two against each other."""

    theorem: str
    disjointness: str
    counts: tuple
    hypotheses_hold: bool
    family: PolygonFamily

    @property
    def component_count(self) -> int:
        return self.counts[-1]

    @property
    def conclusion_holds(self) -> bool:
        return self.counts[-1] >= 1

    @functools.cached_property
    def checks(self) -> tuple:
        rows = zip(_thm321_checks(self.family.size), self.counts)
        return (
            (("check", "semipairwise_disjoint"), ("observed", self.disjointness),
             ("pass", self.disjointness != "neither")),
            *((("check", check), ("indices", list(subset)), ("observed", count),
               ("pass", holds(count))) for (check, subset, holds), count in rows),
        )

    @functools.cached_property
    def witness(self) -> dict:
        total = components(transversal_profile(self.family))
        if total.component_count != self.component_count:
            raise InvariantViolation(
                f"the envelope profile gives {total.component_count} components "
                f"of the whole family, the pair-mask kernel {self.component_count}"
            )
        return total.to_dict()

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses_hold": self.hypotheses_hold,
            "conclusion_holds": self.conclusion_holds,
            "checks": [dict(c) for c in self.checks],
            "witness": self.witness,
        }


def verify_theorem_321(family: PolygonFamily) -> TransversalVerdict:
    """Semipairwise disjoint family of >= 6 open convex polygons: if every
    size-5 subfamily has a transversal and every size-4 subfamily has a
    connected transversal space, the whole family has a transversal."""
    m = family.size
    if m < 6:
        raise ContractViolation("the theorem needs a family of at least 6 members")
    kernel = family._kernel  # built before the classification reads it
    cls = disjointness_class(family)
    rows = _thm321_checks(m)
    # the whole family last: Helly's theorem on the line makes its feasible
    # set the AND of all pair masks
    counts = _subfamily_counts(kernel, [subset for _, subset, _ in rows] + [tuple(range(m))])
    hypotheses_hold = cls != "neither" and all(
        holds(count) for (_, _, holds), count in zip(rows, counts))
    return TransversalVerdict("thm-321", cls, tuple(counts), hypotheses_hold, family)


# ---------------------------------------------------------------------------
# random generators (deterministic per seed)

def _convex_hull(points):
    """Strictly convex hull, CCW; collinear points are dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def build(seq):
        hull = []
        for p in seq:
            while len(hull) >= 2:
                o, a = hull[-2], hull[-1]
                turn = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if turn <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        return hull

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def random_convex_polygon(rng: random.Random, center, radius: float,
                          n_points: int) -> ConvexPolygon:
    """Hull of random near-circle points, rounded to the 1/_GRID lattice."""
    cx, cy = center
    unit, cos, sin = rng.random, math.cos, math.sin
    for _ in range(64):
        pts = []
        for _ in range(max(n_points, 3)):
            # rng.uniform(0.0, TWO_PI) computes 0.0 + TWO_PI * rng.random()
            ang = TWO_PI * unit()
            rr = radius * (0.72 + 0.28 * unit())
            x = cx + rr * cos(ang)
            y = cy + rr * sin(ang)
            pts.append((round(x * _GRID), round(y * _GRID)))
        # on one grid the integer points order and turn as the rationals do
        hull = _convex_hull(pts)
        if len(hull) >= 3:
            return ConvexPolygon._lattice(tuple(hull), _GRID)
    raise GenerationFailure("could not build a non-degenerate polygon")


def _placement_ok(candidate, existing) -> bool:
    """The candidate (integer vertices) keeps the placed members
    semipairwise disjoint: no two members it overlaps overlap each other."""
    overlaps = [i for i, verts in enumerate(existing) if _interiors_overlap(verts, candidate)]
    for a in range(len(overlaps)):
        for b in range(a + 1, len(overlaps)):
            if _interiors_overlap(existing[overlaps[a]], existing[overlaps[b]]):
                return False
    return True


def random_disjoint_pair(seed: int) -> tuple:
    """Two polygons with disjoint interiors, deterministic per seed."""
    rng = random.Random(f"disjoint-pair:{seed}:{_PAIR_RADII}")
    for _ in range(200):
        r1 = rng.uniform(*_PAIR_RADII)
        r2 = rng.uniform(*_PAIR_RADII)
        a = random_convex_polygon(rng, (rng.uniform(-2, 2), rng.uniform(-2, 2)), r1,
                                  rng.randint(3, 16))
        ang = rng.uniform(0.0, TWO_PI)
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


# ---------------------------------------------------------------------------
# file ingestion

def parse_polygon_family(text: str) -> PolygonFamily:
    """Parse the JSON polygon family format.

    Schema: {"members": [{"label": str, "vertices": [[x, y], ...]}, ...]}
    with CCW vertices, each a two-element list; coordinates may be numbers,
    'p/q' strings, or exact decimal strings.
    """
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"polygon file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "members" not in data:
        raise ValidationError("polygon file must be an object with a 'members' list")
    members_spec = data["members"]
    if not isinstance(members_spec, list) or not members_spec:
        raise ValidationError("polygon file needs at least one member")
    members = []
    labels = []
    for pos, entry in enumerate(members_spec):
        if not isinstance(entry, dict) or "label" not in entry or "vertices" not in entry:
            raise ValidationError(f"member #{pos} must be an object with 'label' and 'vertices'")
        label = entry["label"]
        if not isinstance(label, str):
            raise ValidationError(f"member #{pos} label must be a string")
        try:
            poly = ConvexPolygon(entry["vertices"])
        except ValidationError as exc:
            raise ValidationError(f"member {label!r}: {exc}") from exc
        members.append(poly)
        labels.append(label)
    return PolygonFamily(tuple(members), tuple(labels))


def load_polygon_family(path) -> PolygonFamily:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"polygon file is not valid UTF-8: {exc}") from exc
    return parse_polygon_family(text)


# ---------------------------------------------------------------------------
# the transversal table and its two readers

def _sweep_polygon(rng, spread) -> ConvexPolygon:
    center = (rng.uniform(-spread, spread), rng.uniform(-spread, spread))
    return random_convex_polygon(rng, center, rng.uniform(0.5, 2.0), rng.randint(3, 16))


# tag -> ((member count, error text) or None, verify(family), draw(rng, trial_seed, m)).
# A row without a member count checks the family's size itself, and its
# sweep draws m members.  A lemma row's verifier is `_lemma` of its data.
# Verifiers and generators are looked up by module-global name at call
# time, so a rebinding of those names (as by a tracer) is seen.
TRANSVERSALS = {
    # one polygon: every direction admits a transversal, a circle-like space
    "lemma-311": (
        (1, "lemma-311 needs a family with exactly 1 member"),
        _lemma("lemma-311", {"b0": 0, "b1": 1}, lambda s: s.full_circle),
        lambda rng, ts, m: PolygonFamily((_sweep_polygon(rng, 2),)),
    ),
    # a separated pair: one component, not the full circle, so a point
    "lemma-312": (
        (2, "lemma-312 needs a family with exactly 2 members"),
        _lemma("lemma-312", {"b0": 0, "b1": 0},
               lambda s: s.component_count == 1 and not s.full_circle,
               "pair is not separated: the interiors intersect"),
        lambda rng, ts, m: PolygonFamily(random_disjoint_pair(ts)),
    ),
    # a disjoint pair plus any third polygon: never the full circle
    "lemma-313": (
        (3, "lemma-313 needs a family with exactly 3 members "
            "(the first two form the disjoint pair)"),
        _lemma("lemma-313", {"b1": 0}, lambda s: not s.full_circle,
               "designated pair is not disjoint"),
        lambda rng, ts, m: PolygonFamily(random_disjoint_pair(ts) + (_sweep_polygon(rng, 6),)),
    ),
    "thm-321": (
        None,
        lambda fam: verify_theorem_321(fam),
        lambda rng, ts, m: random_stabbed_family(m, ts, jitter=rng.uniform(0.05, 1.2)),
    ),
}


def verify_transversal(tag: str, family: PolygonFamily):
    """The transversal entry point, the counterpart of `run_verifier`: a
    TRANSVERSALS row's `LemmaVerdict` or `TransversalVerdict` of a family,
    both with `hypotheses_hold`, `conclusion_holds` and `to_dict()`."""
    arity, verify, _ = theorem_row(TRANSVERSALS, tag)
    if arity is not None and family.size != arity[0]:
        raise ValidationError(arity[1])
    return verify(family)


def sweep_transversal(theorem: str, trials: int, seed: int = 0, m=None) -> SweepReport:
    """Randomized sweep over the transversal lemmas and the six-member
    transversal theorem; zero conclusion violations expected always.

    ``m`` is the family size of a thm-321 trial (6 when None); a lemma row
    draws its own fixed number of members and takes no ``m``."""
    arity, verify, draw = theorem_row(TRANSVERSALS, theorem)
    if arity is None:
        m = 6 if m is None else m
    elif m is not None:
        raise ContractViolation(f"{theorem} has a fixed family size; m does not apply")

    def trial(ts):
        return verify(draw(random.Random(f"transversal-sweep:{theorem}:{ts}"), ts, m))

    return tally_sweep(theorem, trials, seed, {} if arity else {"m": m}, trial)
