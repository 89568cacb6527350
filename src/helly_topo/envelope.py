"""The envelope profile of a polygon family's line transversals and the
components it reports: the lemma rows' path, the thm-321 verdict's witness,
and the oracle that tests check the pair-mask kernel against.

A line is parametrized as {x : x.(cos t, sin t) = p} with direction-normal
angle t and offset p, under the identification (t, p) ~ (t + pi, -p).  The
line meets an open polygon exactly when p lies strictly between the two
support values of the polygon in direction t, so the transversal space of a
family fibers over the circle of directions with open-interval fibers: its
topology is the topology of the set of feasible directions in the quotient
circle.  Components of that set give b0; the set being the whole circle
gives b1 = 1 (and is the expected picture for a single polygon, whose
transversal space retracts to the circle of line directions).

The profile decides every sign with `transversal_kernel`'s integers;
`components` reports arc ends and widths as floats, and `sample_oracle`
is a float cross-check of both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolation, InvariantViolation
from .transversal_kernel import (
    PolygonFamily, _cross, _dot, _neg, _primitive, _sort_directions, _strictly_inside,
    _upper_half, _walk_form, _walk_zeros,
)

TWO_PI = 2.0 * math.pi

# feasible arcs or gaps narrower than this (radians) get a degeneracy flag:
# a sampling oracle may misread the component count near such features
NARROW_FEATURE_WIDTH = 1e-2
# tan(NARROW_FEATURE_WIDTH) rounded up to ten significant digits: the exact
# bound `_narrow` compares an arc's turn with
_NARROW_TAN = Fraction(1000033335, 10 ** 11)


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
# the exact envelope sweep

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
