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
Vertex coordinates are rationals, scaled once per family to integers.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import (
    ContractViolation,
    GenerationFailure,
    InvariantViolation,
    ValidationError,
)
from .helly_engine import SweepReport, tally_sweep

TWO_PI = 2.0 * math.pi

# feasible arcs or gaps narrower than this (radians) get a degeneracy flag:
# a sampling oracle may misread the component count near such features
NARROW_FEATURE_WIDTH = 1e-2


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"coordinate must be a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
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


def _dir_cmp(a, b) -> int:
    """Circular order starting at direction (1, 0)."""
    if a == b:
        return 0
    ha = 0 if _upper_half(a) else 1
    hb = 0 if _upper_half(b) else 1
    if ha != hb:
        return -1 if ha < hb else 1
    c = _cross(a, b)
    return -1 if c > 0 else 1


def _sort_directions(dirs):
    return sorted(set(dirs), key=functools.cmp_to_key(_dir_cmp))


def _strictly_inside(p, q, r) -> bool:
    """r strictly inside the arc from p to q, valid for arcs narrower than pi."""
    return _cross(p, r) > 0 and _cross(r, q) > 0


def _angle(d) -> float:
    return math.atan2(d[1], d[0]) % TWO_PI


# ---------------------------------------------------------------------------
# polygons

@dataclass(frozen=True)
class ConvexPolygon:
    """An open bounded convex region, stored as a strictly convex CCW vertex
    cycle with rational coordinates.  The region is the interior."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple((_to_fraction(x), _to_fraction(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        n = len(verts)
        if n < 3:
            raise ValidationError("a polygon needs at least 3 vertices")
        for i in range(n):
            a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            turn = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if turn <= 0:
                raise ValidationError(
                    "vertices must be strictly convex in counterclockwise order "
                    f"(violated at vertex {i + 1})"
                )

    def to_float_vertices(self):
        return [(float(x), float(y)) for x, y in self.vertices]


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

    def subfamily(self, indices) -> "PolygonFamily":
        idx = sorted(set(indices))
        if not idx:
            raise ContractViolation("index set must be nonempty")
        return PolygonFamily(
            tuple(self.members[i] for i in idx),
            tuple(self.labels[i] for i in idx),
        )

    @functools.cached_property
    def _int_data(self):
        """Common denominator scale and all-integer vertex lists."""
        denoms = [
            coord.denominator for poly in self.members for v in poly.vertices for coord in v
        ]
        scale = lcm(*denoms) if denoms else 1
        scaled = tuple(
            tuple((int(x * scale), int(y * scale)) for x, y in poly.vertices)
            for poly in self.members
        )
        return scale, scaled


def support_interval(polygon: ConvexPolygon, theta: float):
    """Offsets p for which the line {x.(cos t, sin t) = p} meets the open
    polygon: the open interval (low, high) of vertex projections."""
    ux, uy = math.cos(theta), math.sin(theta)
    dots = [float(x) * ux + float(y) * uy for x, y in polygon.vertices]
    return min(dots), max(dots)


def _argmax_vertex(verts, d):
    best = verts[0]
    best_val = _dot(best, d)
    for v in verts[1:]:
        val = _dot(v, d)
        if val > best_val:
            best, best_val = v, val
    return best


def _feasibility_sign_at(scaled_polys, d) -> int:
    """Sign of min_i max_v v.d - max_i min_v v.d at an exact direction."""
    upper = min(max(_dot(v, d) for v in verts) for verts in scaled_polys)
    lower = max(min(_dot(v, d) for v in verts) for verts in scaled_polys)
    diff = upper - lower
    return (diff > 0) - (diff < 0)


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

    family: PolygonFamily
    scale: int
    panels: tuple
    boundary_signs: tuple

    @property
    def breakpoints(self) -> tuple:
        return tuple(sorted(p.start_angle for p in self.panels))


def transversal_profile(family: PolygonFamily) -> TransversalProfile:
    """Exact piecewise structure of the transversal envelopes of a family."""
    scale, polys = family._int_data
    m = len(polys)

    # base events: argmax/argmin transitions of every member, i.e. the
    # outward edge normals and their negations
    events = set()
    for verts in polys:
        n = len(verts)
        for i in range(n):
            vx, vy = verts[i]
            wx, wy = verts[(i + 1) % n]
            normal = _primitive(wy - vy, -(wx - vx))
            events.add(normal)
            events.add(_neg(normal))
    order = _sort_directions(events)

    panels = []
    n_events = len(order)
    for idx in range(n_events):
        p = order[idx]
        q = order[(idx + 1) % n_events]
        t = (p[0] + q[0], p[1] + q[1])
        # per-member dominating vertices are constant on the whole base panel
        ups = [_argmax_vertex(verts, t) for verts in polys]
        los = [_argmax_vertex(verts, _neg(t)) for verts in polys]

        # stage 1: split where the envelope can switch members
        cuts = set()
        for group in (ups, los):
            for a in range(m):
                for b in range(a + 1, m):
                    w = (group[a][0] - group[b][0], group[a][1] - group[b][1])
                    if w == (0, 0):
                        continue
                    r = _primitive(-w[1], w[0])
                    for cand in (r, _neg(r)):
                        if _strictly_inside(p, q, cand):
                            cuts.add(cand)
        inner = sorted(cuts, key=functools.cmp_to_key(lambda r1, r2: -_cross(r1, r2)))
        stops = [p] + inner + [q]

        for s0, s1 in zip(stops, stops[1:]):
            t2 = (s0[0] + s1[0], s0[1] + s1[1])
            u_member = min(range(m), key=lambda i: (_dot(ups[i], t2), i))
            l_member = max(range(m), key=lambda i: (_dot(los[i], t2), -i))
            vu = ups[u_member]
            vl = los[l_member]
            w = (vu[0] - vl[0], vu[1] - vl[1])

            # stage 2: split at the feasibility root, if it falls inside
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
                panels.append(
                    Panel(a0, a1, u_member, vu, l_member, vl, sign)
                )

    boundary_signs = tuple(_feasibility_sign_at(polys, p.start) for p in panels)
    return TransversalProfile(family, scale, tuple(panels), boundary_signs)


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

    total = 2 * n
    start_at = next(i for i in range(total) if not feas[i])
    runs = []  # (first_element, last_element) in rotated coordinates
    current = None
    for off in range(total):
        i = (start_at + off) % total
        if feas[i]:
            if current is None:
                current = [i, i]
            else:
                current[1] = i
        else:
            if current is not None:
                runs.append(tuple(current))
                current = None
    if current is not None:
        runs.append(tuple(current))

    def _element_panel(e):
        # feasible runs open and close on panel elements (odd indices)
        if e % 2 != 1:
            raise InvariantViolation("feasible run touches an isolated boundary point")
        return e // 2

    arcs_full = []
    for first, last in runs:
        pi_first = _element_panel(first)
        pi_last = _element_panel(last)
        d0 = panels[pi_first].start
        d1 = panels[pi_last].end
        a0 = _angle(d0)
        width = (_angle(d1) - a0) % TWO_PI
        arcs_full.append((d0, a0, width))

    count_full = len(arcs_full)
    if count_full % 2 != 0:
        raise InvariantViolation("feasible arcs must come in antipodal pairs")

    quotient_arcs = [
        (a0, a0 + width) for (d0, a0, width) in arcs_full if _upper_half(d0)
    ]
    if len(quotient_arcs) != count_full // 2:
        raise InvariantViolation("antipodal arc pairs must have one member in [0, pi)")

    widths = [w for (_, _, w) in arcs_full]
    min_arc = min(widths)
    gaps = []
    for k in range(count_full):
        _, a0, width = arcs_full[k]
        _, next_a0, _ = arcs_full[(k + 1) % count_full]
        gaps.append((next_a0 - (a0 + width)) % TWO_PI)
    min_gap = min(gaps) if gaps else None

    if min_arc < NARROW_FEATURE_WIDTH:
        flags.append((("kind", "narrow_arc"), ("width", min_arc)))
    if min_gap is not None and min_gap < NARROW_FEATURE_WIDTH:
        flags.append((("kind", "narrow_gap"), ("width", min_gap)))

    return ComponentSummary(
        component_count=count_full // 2,
        full_circle=False,
        feasible_arcs=tuple(sorted(quotient_arcs)),
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
    thetas = np.arange(resolution) * (math.pi / resolution)
    cs, sn = np.cos(thetas), np.sin(thetas)
    upper = None
    lower = None
    for poly in family.members:
        verts = np.array(poly.to_float_vertices())
        vals = verts[:, 0][:, None] * cs[None, :] + verts[:, 1][:, None] * sn[None, :]
        hi = vals.max(axis=0)
        lo = vals.min(axis=0)
        upper = hi if upper is None else np.minimum(upper, hi)
        lower = lo if lower is None else np.maximum(lower, lo)
    feasible = upper > lower

    if bool(feasible.all()):
        return ComponentSummary(1, True, ((0.0, math.pi),), (), math.pi, None,
                                method="sampled", resolution=resolution)
    if not bool(feasible.any()):
        return ComponentSummary(0, False, (), (), None, math.pi,
                                method="sampled", resolution=resolution)

    # cyclic run extraction over the quotient circle
    start_at = int(np.argmin(feasible))
    arcs = []
    current = None
    step = math.pi / resolution
    for off in range(resolution):
        i = (start_at + off) % resolution
        if feasible[i]:
            if current is None:
                current = [i, i]
            else:
                current[1] = i
        else:
            if current is not None:
                arcs.append(tuple(current))
                current = None
    if current is not None:
        arcs.append(tuple(current))
    out = []
    for first, last in arcs:
        a0 = thetas[first]
        width = ((last - first) % resolution + 1) * step
        out.append((float(a0), float(a0 + width)))
    min_arc = min(e - s for s, e in out)
    return ComponentSummary(len(arcs), False, tuple(sorted(out)), (), min_arc, None,
                            method="sampled", resolution=resolution)


# ---------------------------------------------------------------------------
# disjointness classification (exact separating-axis tests on open interiors)

def _interiors_overlap(verts_a, verts_b) -> bool:
    """Open interiors intersect; touching boundaries count as disjoint."""
    for verts in (verts_a, verts_b):
        n = len(verts)
        for i in range(n):
            v, w = verts[i], verts[(i + 1) % n]
            axis = (w[1] - v[1], -(w[0] - v[0]))
            max_a = max(_dot(p, axis) for p in verts_a)
            min_a = min(_dot(p, axis) for p in verts_a)
            max_b = max(_dot(p, axis) for p in verts_b)
            min_b = min(_dot(p, axis) for p in verts_b)
            if max_a <= min_b or max_b <= min_a:
                return False
    return True


def polygons_disjoint(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    fam = PolygonFamily((a, b), ("a", "b"))
    _, scaled = fam._int_data
    return not _interiors_overlap(scaled[0], scaled[1])


def disjointness_class(family: PolygonFamily) -> str:
    """'pairwise_disjoint', 'semipairwise_disjoint' (among any three members
    some two are disjoint), or 'neither'."""
    _, polys = family._int_data
    m = len(polys)
    overlap = {}
    for i in range(m):
        for j in range(i + 1, m):
            overlap[(i, j)] = _interiors_overlap(polys[i], polys[j])
    if not any(overlap.values()):
        return "pairwise_disjoint"
    for i, j, k in itertools.combinations(range(m), 3):
        if overlap[(i, j)] and overlap[(i, k)] and overlap[(j, k)]:
            return "neither"
    return "semipairwise_disjoint"


# ---------------------------------------------------------------------------
# lemma and theorem verifiers

@dataclass(frozen=True)
class LemmaVerdict:
    lemma: str
    passed: bool
    expected: dict
    summary: ComponentSummary

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "passed": self.passed,
            "expected": self.expected,
            "observed": self.summary.to_dict(),
        }


def verify_lemma_311_plane(polygon: ConvexPolygon) -> LemmaVerdict:
    """One polygon: every direction admits a transversal, so the space is
    circle-like, (b0, b1) = (0, 1)."""
    summary = components(transversal_profile(PolygonFamily((polygon,))))
    passed = summary.full_circle and summary.betti() == {"nonempty": True, "b0": 0, "b1": 1}
    return LemmaVerdict("lemma-311", passed, {"b0": 0, "b1": 1}, summary)


def verify_lemma_312_plane(a: ConvexPolygon, b: ConvexPolygon) -> LemmaVerdict:
    """A separated pair: exactly one component and not the full circle,
    (b0, b1) = (0, 0) -- a point up to homotopy."""
    if not polygons_disjoint(a, b):
        raise ContractViolation("pair is not separated: the interiors intersect")
    summary = components(transversal_profile(PolygonFamily((a, b))))
    passed = (summary.component_count == 1) and not summary.full_circle
    return LemmaVerdict("lemma-312", passed, {"b0": 0, "b1": 0}, summary)


def verify_lemma_313(a: ConvexPolygon, b: ConvexPolygon, c: ConvexPolygon) -> LemmaVerdict:
    """A disjoint pair plus any third polygon: the transversal space never
    wraps the whole direction circle (b1 = 0); it may be empty or have
    several components."""
    if not polygons_disjoint(a, b):
        raise ContractViolation("designated pair is not disjoint")
    summary = components(transversal_profile(PolygonFamily((a, b, c))))
    passed = not summary.full_circle
    return LemmaVerdict("lemma-313", passed, {"b1": 0}, summary)


@dataclass(frozen=True)
class TransversalVerdict:
    theorem: str
    checks: tuple
    hypotheses_hold: bool
    conclusion_holds: bool
    witness: dict

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
    checks = []
    cls = disjointness_class(family)
    checks.append(
        (
            ("check", "semipairwise_disjoint"),
            ("observed", cls),
            ("pass", cls in ("pairwise_disjoint", "semipairwise_disjoint")),
        )
    )
    for combo in itertools.combinations(range(m), 5):
        summary = components(transversal_profile(family.subfamily(combo)))
        checks.append(
            (
                ("check", "size5_nonempty"),
                ("indices", list(combo)),
                ("observed", summary.component_count),
                ("pass", summary.component_count >= 1),
            )
        )
    for combo in itertools.combinations(range(m), 4):
        summary = components(transversal_profile(family.subfamily(combo)))
        checks.append(
            (
                ("check", "size4_connected"),
                ("indices", list(combo)),
                ("observed", summary.component_count),
                ("pass", summary.component_count == 1),
            )
        )
    hypotheses_hold = all(dict(c)["pass"] for c in checks)
    total = components(transversal_profile(family))
    return TransversalVerdict(
        "thm-321",
        tuple(checks),
        hypotheses_hold,
        total.component_count >= 1,
        total.to_dict(),
    )


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


def random_convex_polygon(rng: random.Random, center=(0.0, 0.0), radius: float = 1.0,
                          n_points: int = 8, grid: int = 10 ** 4) -> ConvexPolygon:
    """Hull of random near-circle points, rounded to rational grid coordinates."""
    cx, cy = center
    for _ in range(64):
        pts = []
        for _ in range(max(n_points, 3)):
            ang = rng.uniform(0.0, TWO_PI)
            rr = radius * (0.72 + 0.28 * rng.random())
            x = cx + rr * math.cos(ang)
            y = cy + rr * math.sin(ang)
            pts.append((Fraction(round(x * grid), grid), Fraction(round(y * grid), grid)))
        hull = _convex_hull(pts)
        if len(hull) >= 3:
            return ConvexPolygon(tuple(hull))
    raise GenerationFailure("could not build a non-degenerate polygon")


def _placement_ok(existing, candidate_verts, scaled_existing, disjointness) -> bool:
    if disjointness is None:
        return True
    overlaps = [
        i for i, verts in enumerate(scaled_existing)
        if _interiors_overlap(verts, candidate_verts)
    ]
    if disjointness == "pairwise_disjoint":
        return not overlaps
    if disjointness == "semipairwise_disjoint":
        for a in range(len(overlaps)):
            for b in range(a + 1, len(overlaps)):
                if _interiors_overlap(scaled_existing[overlaps[a]], scaled_existing[overlaps[b]]):
                    return False
        return True
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
    members = []
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
        # rescale candidate and existing members to a common denominator
        trial = PolygonFamily(tuple(members) + (poly,))
        _, all_scaled = trial._int_data
        if _placement_ok(members, all_scaled[-1], all_scaled[:-1], disjointness):
            members.append(poly)
    return PolygonFamily(tuple(members))


def random_disjoint_pair(seed: int, size_range=(0.5, 1.5)) -> tuple:
    """Two polygons with disjoint interiors, deterministic per seed."""
    rng = random.Random(f"disjoint-pair:{seed}:{size_range}")
    for _ in range(200):
        r1 = rng.uniform(*size_range)
        r2 = rng.uniform(*size_range)
        a = random_convex_polygon(rng, (rng.uniform(-2, 2), rng.uniform(-2, 2)), r1,
                                  rng.randint(3, 16))
        ang = rng.uniform(0.0, TWO_PI)
        dist = (r1 + r2) * rng.uniform(1.05, 3.0)
        ax = sum(float(x) for x, _ in a.vertices) / len(a.vertices)
        ay = sum(float(y) for _, y in a.vertices) / len(a.vertices)
        b = random_convex_polygon(
            rng, (ax + dist * math.cos(ang), ay + dist * math.sin(ang)), r2,
            rng.randint(3, 16)
        )
        if polygons_disjoint(a, b):
            return a, b
    raise GenerationFailure("could not place a disjoint pair")


def random_stabbed_family(m: int, seed: int, jitter: float = 0.4,
                          spacing: float = 3.0, size: float = 0.9,
                          n_points_range=(4, 10)) -> PolygonFamily:
    """Semipairwise-disjoint family whose members sit near a random line.

    The jitter parameter moves members off the common line; small values
    make the size-4/size-5 transversal hypotheses likely, larger values
    produce instances that fail them.
    """
    if m < 1:
        raise ContractViolation("m must be >= 1")
    rng = random.Random(f"stabbed-family:{m}:{seed}:{jitter}:{spacing}:{size}")
    phi = rng.uniform(0.0, math.pi)
    ux, uy = math.cos(phi), math.sin(phi)
    px, py = -uy, ux
    members = []
    for k in range(m):
        for attempt in range(60):
            along = (k - (m - 1) / 2.0) * spacing + rng.uniform(-0.25, 0.25) * spacing
            off = rng.uniform(-jitter, jitter)
            center = (along * ux + off * px, along * uy + off * py)
            radius = size * rng.uniform(0.55, 1.0)
            poly = random_convex_polygon(rng, center, radius, rng.randint(*n_points_range))
            trial = PolygonFamily(tuple(members) + (poly,))
            _, all_scaled = trial._int_data
            if _placement_ok(members, all_scaled[-1], all_scaled[:-1], "semipairwise_disjoint"):
                members.append(poly)
                break
        else:
            raise GenerationFailure(f"could not place member {k + 1} of a stabbed family")
    return PolygonFamily(tuple(members))


# ---------------------------------------------------------------------------
# file ingestion

def parse_polygon_family(text: str) -> PolygonFamily:
    """Parse the JSON polygon family format.

    Schema: {"members": [{"label": str, "vertices": [[x, y], ...]}, ...]}
    with CCW vertices; coordinates may be numbers, 'p/q' strings, or exact
    decimal strings.
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
            poly = ConvexPolygon(tuple((x, y) for x, y in entry["vertices"]))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"member {label!r}: bad vertex list") from exc
        except ValidationError as exc:
            raise ValidationError(f"member {label!r}: {exc}") from exc
        members.append(poly)
        labels.append(label)
    return PolygonFamily(tuple(members), tuple(labels))


def load_polygon_family(path) -> PolygonFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polygon_family(fh.read())


# ---------------------------------------------------------------------------
# randomized sweeps

TRANSVERSAL_THEOREMS = ("lemma-311", "lemma-312", "lemma-313", "thm-321")


def sweep_transversal(theorem: str, trials: int, seed: int = 0, m: int = 6) -> SweepReport:
    """Randomized sweep over the transversal lemmas and the six-member
    transversal theorem; zero conclusion violations expected always."""
    if theorem not in TRANSVERSAL_THEOREMS:
        raise ContractViolation(f"unknown theorem tag {theorem!r}")

    def trial(ts):
        rng = random.Random(f"transversal-sweep:{theorem}:{ts}")

        def polygon(spread):
            center = (rng.uniform(-spread, spread), rng.uniform(-spread, spread))
            return random_convex_polygon(rng, center, rng.uniform(0.5, 2.0), rng.randint(3, 16))

        if theorem == "lemma-311":
            return True, verify_lemma_311_plane(polygon(2)).passed, ()
        if theorem == "lemma-312":
            a, b = random_disjoint_pair(ts)
            return True, verify_lemma_312_plane(a, b).passed, ()
        if theorem == "lemma-313":
            a, b = random_disjoint_pair(ts)
            return True, verify_lemma_313(a, b, polygon(6)).passed, ()
        jitter = rng.uniform(0.05, 1.2)
        verdict = verify_theorem_321(random_stabbed_family(m, ts, jitter=jitter))
        return verdict.hypotheses_hold, verdict.conclusion_holds, ()

    params = {"m": m} if theorem == "thm-321" else {}
    return tally_sweep(theorem, trials, seed, params, trial)
