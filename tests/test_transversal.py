import functools
import hashlib
import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helly_topo.cli import main
from helly_topo import polygon_draws, transversal_kernel, transversal_plane
from helly_topo.errors import (
    ContractViolation,
    GenerationFailure,
    InvariantViolation,
    ValidationError,
)
from helly_topo.envelope import (
    NARROW_FEATURE_WIDTH,
    TWO_PI,
    _angle,
    _cyclic_runs,
    _narrow,
    ComponentSummary,
    Panel,
    TransversalProfile,
    components,
    sample_oracle,
    transversal_profile,
)
from helly_topo.polygon_draws import (
    random_convex_polygon,
    random_disjoint_pair,
    random_stabbed_family,
)
from helly_topo.transversal_kernel import (
    _convex_hull,
    _cross,
    _at,
    _interiors_overlap,
    _neg,
    _negated_form,
    _pair_masks,
    _placement_ok,
    _primitive,
    _sort_directions,
    _strictly_inside,
    _subfamily_counts,
    _upper_half,
    _walk_form,
    _walk_zeros,
    ConvexPolygon,
    PolygonFamily,
    disjointness_class,
    polygons_disjoint,
)
from helly_topo.transversal_plane import (
    TRANSVERSALS,
    load_polygon_family,
    parse_polygon_family,
    sweep_transversal,
    verify_theorem_321,
    verify_transversal,
)

from conftest import (
    lattice_family,
    random_polygon_family,
    square,
    subfamily,
    sweep_counts,
    vertices,
)


UNIT_SQUARE = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))


def support_interval(polygon: ConvexPolygon, theta: float):
    """Offsets p for which the line {x.(cos t, sin t) = p} meets the open
    polygon: the open interval (low, high) of vertex projections.  A float
    oracle for the exact support sinusoids."""
    ux, uy = math.cos(theta), math.sin(theta)
    dots = [float(x) * ux + float(y) * uy for x, y in vertices(polygon)]
    return min(dots), max(dots)


# --- polygons and support intervals ----------------------------------------


def test_polygon_requires_three_vertices():
    with pytest.raises(ValidationError):
        ConvexPolygon(((0, 0), (1, 0)))


def test_polygon_rejects_clockwise():
    with pytest.raises(ValidationError):
        ConvexPolygon(((0, 0), (0, 1), (1, 1), (1, 0)))


def test_polygon_rejects_collinear():
    with pytest.raises(ValidationError):
        ConvexPolygon(((0, 0), (1, 0), (2, 0), (1, 1)))


@pytest.mark.parametrize("verts", [
    ("10", "32", "01"),  # each would unpack to the triangle (1, 0), (3, 2), (0, 1)
    {"10": 0, "32": 0, "01": 0},
    ((0, 0, 0), (1, 0, 0), (0, 1, 0)),
    ((0, 0), (1, 0), (0,)),
    "abc",
    None,
], ids=["two-character-strings", "dict", "three-item-vertices", "one-item-vertex", "string", "none"])
def test_polygon_vertices_must_be_coordinate_pairs(verts):
    with pytest.raises(ValidationError, match="^bad vertex list$"):
        ConvexPolygon(verts)
    assert ConvexPolygon([[0, 0], [1, 0], [0, 1]]) == ConvexPolygon(((0, 0), (1, 0), (0, 1)))


def test_polygon_accepts_rational_strings():
    poly = ConvexPolygon((("1/2", 0), ("3/2", "0.5"), ("1/2", 1)))
    assert vertices(poly)[0] == (Fraction(1, 2), Fraction(0))
    assert vertices(poly)[1] == (Fraction(3, 2), Fraction(1, 2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=repr)
def test_polygon_rejects_non_finite_coordinates(bad, tmp_path, capsys):
    message = f"coordinate must be finite, got {bad!r}"
    with pytest.raises(ValidationError) as exc:
        ConvexPolygon(((0, 0), (1, 0), (bad, 1)))
    assert str(exc.value) == message
    # the JSON file spells the value NaN, Infinity or -Infinity
    path = tmp_path / "bad.json"
    member = {"label": "P1", "vertices": [[0, 0], [1, 0], [bad, 1]]}
    path.write_text(json.dumps({"members": [member]}))
    assert main(["verify", "lemma-311", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: member 'P1': {message}\n"


@pytest.mark.parametrize("bad, message", [
    (True, "coordinate must be a number, got True"),
    ("1/0", "cannot parse coordinate '1/0'"),
    ("x", "cannot parse coordinate 'x'"),
    (None, "coordinate must be a number or 'p/q' string, got None"),
], ids=["bool", "zero-denominator", "not-a-number", "none"])
def test_polygon_rejects_unreadable_coordinates(bad, message):
    with pytest.raises(ValidationError) as exc:
        ConvexPolygon(((0, 0), (1, 0), (bad, 1)))
    assert str(exc.value) == message


@pytest.mark.parametrize("labels, message", [
    (("a",), "labels and members must have the same length"),
    (("a", "a"), "member labels must be unique"),
], ids=["too-few", "repeated"])
def test_polygon_family_rejects_bad_labels(labels, message):
    with pytest.raises(ValidationError) as exc:
        PolygonFamily((square(0, 0), square(10, 0)), labels)
    assert str(exc.value) == message


DENTED_SQUARE = [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)]


@pytest.mark.parametrize("verts, vertex", [
    (DENTED_SQUARE, 3),
    (DENTED_SQUARE[2:] + DENTED_SQUARE[:2], 1),
    ([(0, 0), (0, 1), (1, 1), (1, 0)], 1),
], ids=["dented", "dent-first", "clockwise"])
def test_polygon_check_names_the_first_vertex_that_does_not_turn_left(verts, vertex):
    with pytest.raises(ValidationError, match=rf"\(violated at vertex {vertex}\)$"):
        ConvexPolygon(verts)


def _fraction_turn_error(vertices):
    """The polygon check in Fraction arithmetic: the error text a vertex
    cycle must be rejected with, or None if it is strictly convex and
    counterclockwise.  The error names the lowest 1-based k whose turn
    (k - 1, k, k + 1), read cyclically, is not a strict left turn."""
    verts = [(Fraction(x), Fraction(y)) for x, y in vertices]
    n = len(verts)
    if n < 3:
        return "a polygon needs at least 3 vertices"
    for i in range(n):
        a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
        if (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) <= 0:
            return (
                "vertices must be strictly convex in counterclockwise order "
                f"(violated at vertex {i + 1})"
            )
    return None


@st.composite
def _vertex_cycles(draw):
    """Rational vertex cycles with mixed denominators: convex hulls, some
    reversed (clockwise), with a repeated vertex or an edge midpoint
    (collinear), rotated, or raw point lists."""
    coord = st.fractions(-5, 5, max_denominator=9)
    points = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=8))
    verts = list(points) if draw(st.booleans()) else _convex_hull(points)
    edit = draw(st.sampled_from(["none", "reverse", "repeat", "midpoint"]))
    if verts and edit == "reverse":
        verts.reverse()
    elif verts and edit == "repeat":
        k = draw(st.integers(0, len(verts) - 1))
        verts.insert(k, verts[k])
    elif len(verts) >= 2 and edit == "midpoint":
        k = draw(st.integers(0, len(verts) - 2))
        a, b = verts[k], verts[k + 1]
        verts.insert(k + 1, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    shift = draw(st.integers(0, 7))
    return verts[shift % len(verts):] + verts[:shift % len(verts)] if verts else verts


def _lattice_points(verts, factor=1):
    """Integer points over a scale for rational vertices: the least common
    denominator times ``factor``, a factor the points then share."""
    scale = math.lcm(*(c.denominator for v in verts for c in v)) * factor
    return tuple((int(x * scale), int(y * scale)) for x, y in verts), scale


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_vertex_cycles(), st.integers(1, 12))
# points (0, 0), (6, 0), (0, 6) over 12 reduce to (0, 0), (1, 0), (0, 1) over 2
@example([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))], 6)
# a square dented at vertex 3, the same cycle opening at the dent, and a
# clockwise square: the error names the reflex vertex, 3, 1 and 1
@example(DENTED_SQUARE, 1)
@example(DENTED_SQUARE[2:] + DENTED_SQUARE[:2], 1)
@example([(0, 0), (0, 1), (1, 1), (1, 0)], 1)
def test_polygon_check_matches_fraction_turns(verts, factor):
    expected = _fraction_turn_error(verts)
    # parsed rationals, and the same cycle handed to the lattice
    # constructor as integer points over a scale they share a factor with
    for build in (lambda: ConvexPolygon(tuple(verts)),
                  lambda: ConvexPolygon._lattice(*_lattice_points(verts, factor))):
        try:
            poly = build()
        except ValidationError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert vertices(poly) == tuple((Fraction(x), Fraction(y)) for x, y in verts)
            assert poly == ConvexPolygon(tuple(verts))
            assert hash(poly) == hash(ConvexPolygon(tuple(verts)))
            assert math.gcd(poly.scale, *(c for p in poly.points for c in p)) == 1


def test_support_interval_unit_square():
    lo, hi = support_interval(UNIT_SQUARE, 0.0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = support_interval(UNIT_SQUARE, math.pi)
    assert lo == pytest.approx(-1.0) and hi == pytest.approx(0.0, abs=1e-12)
    lo, hi = support_interval(UNIT_SQUARE, math.pi / 4)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi == pytest.approx(math.sqrt(2))


# --- direction order -------------------------------------------------------


def _dir_cmp(a, b) -> int:
    """Circular order starting at direction (1, 0), decided by the half
    and then the sign of a cross product: the order oracle for the integer
    key of `_sort_directions`."""
    if a == b:
        return 0
    ha = 0 if _upper_half(a) else 1
    hb = 0 if _upper_half(b) else 1
    if ha != hb:
        return -1 if ha < hb else 1
    c = _cross(a, b)
    return -1 if c > 0 else 1


AXES = [(1, 0), (0, 1), (-1, 0), (0, -1)]


@st.composite
def _direction_sets(draw):
    """Primitive directions: random ones, the axes, antipodes, and
    neighbouring slopes with components up to 10**12."""
    coord = st.integers(-10 ** 6, 10 ** 6)
    dirs = [
        _primitive(x, y)
        for x, y in draw(st.lists(st.tuples(coord, coord), max_size=12))
        if (x, y) != (0, 0)
    ]
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.one_of(st.integers(1, 50), st.integers(10 ** 11, 10 ** 12)))
        dirs += [(n, 1), (n + 1, 1), (n, -1), (-n, 1), (1, n), (1, n + 1), (-1, -n)]
    dirs += draw(st.lists(st.sampled_from(AXES), max_size=4))
    if draw(st.booleans()):
        dirs += [(-x, -y) for x, y in dirs]
    return dirs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_direction_sets())
# sets with no slope to scale: empty, every y 0, or only the axes
@example([])
@example([(1, 0)])
@example([(-1, 0), (1, 0)])
@example(AXES[::-1])
def test_sort_directions_matches_comparator(dirs):
    assert _sort_directions(dirs) == sorted(set(dirs), key=functools.cmp_to_key(_dir_cmp))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_direction_sets())
@example([])
@example(AXES)
def test_upper_half_sort_then_negations_is_the_whole_sort(dirs):
    # the layout `_pair_masks` gives a cut closed under negation: its upper
    # half sorted, then each of those negated, so -d sits U places after d
    closed = set(dirs) | {(-x, -y) for x, y in dirs}
    half = _sort_directions([d for d in closed if _upper_half(d)])
    assert half + [(-x, -y) for x, y in half] == _sort_directions(closed)


# --- profile structure -----------------------------------------------------


def test_single_square_profile_full_circle():
    summary = components(transversal_profile(PolygonFamily((UNIT_SQUARE,))))
    assert summary.full_circle and summary.component_count == 1
    assert summary.betti() == {"nonempty": True, "b0": 0, "b1": 1}
    assert summary.feasible_arcs == ((0.0, math.pi),)


def test_duplicate_member_is_idempotent():
    copy = ConvexPolygon(vertices(UNIT_SQUARE))
    one = components(transversal_profile(PolygonFamily((UNIT_SQUARE,))))
    two = components(transversal_profile(PolygonFamily((UNIT_SQUARE, copy), ("a", "b"))))
    assert one.component_count == two.component_count
    assert one.full_circle == two.full_circle


def test_profile_panels_tile_the_circle():
    fam = random_polygon_family(3, seed=11)
    prof = transversal_profile(fam)
    n = len(prof.panels)
    for i in range(n):
        assert prof.panels[i].end == prof.panels[(i + 1) % n].start


def test_profile_envelopes_continuous_at_breakpoints():
    fam = random_polygon_family(4, seed=17)
    prof = transversal_profile(fam)
    n = len(prof.panels)
    for i in range(n):
        a, b = prof.panels[i], prof.panels[(i + 1) % n]
        d = a.end
        assert a.upper_vertex[0] * d[0] + a.upper_vertex[1] * d[1] == \
            b.upper_vertex[0] * d[0] + b.upper_vertex[1] * d[1]
        assert a.lower_vertex[0] * d[0] + a.lower_vertex[1] * d[1] == \
            b.lower_vertex[0] * d[0] + b.lower_vertex[1] * d[1]


def test_seam_identity_exact():
    # the lower envelope at the antipodal direction is carried by the upper
    # envelope's vertex and vice versa: L(t + pi) = -U(t) at coefficient level.
    # Panels are antipodally symmetric, so the antipode of panel k is panel
    # k + n/2.
    for seed in (3, 5, 8):
        fam = random_polygon_family(3, seed=seed)
        prof = transversal_profile(fam)
        n = len(prof.panels)
        assert n % 2 == 0
        for k, panel in enumerate(prof.panels):
            anti = prof.panels[(k + n // 2) % n]
            assert anti.start == (-panel.start[0], -panel.start[1])
            assert anti.lower_vertex == panel.upper_vertex
            assert anti.upper_vertex == panel.lower_vertex


def test_sinusoid_pieces_match_support(tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"members": [{"label": "P1", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}]}))
    assert main(["transversal", "profile", "--in", str(path)]) == 0
    panels = json.loads(capsys.readouterr().out)["result"]["panels"]
    assert panels
    for panel in panels:
        start, end = panel["start_angle"], panel["end_angle"]
        theta = 0.5 * (start + end) if end > start else start
        a, b = Fraction(panel["upper"]["a"]), Fraction(panel["upper"]["b"])
        _, hi = support_interval(UNIT_SQUARE, theta)
        assert float(a) * math.cos(theta) + float(b) * math.sin(theta) == pytest.approx(hi, abs=1e-9)


# --- components ------------------------------------------------------------


def test_two_distant_squares_one_component():
    fam = PolygonFamily((square(0, 0), square(10, 0)))
    summary = components(transversal_profile(fam))
    assert summary.component_count == 1 and not summary.full_circle
    # feasible normals cluster around pi/2: near-horizontal lines
    (start, end), = summary.feasible_arcs
    assert start < math.pi / 2 < end
    # infeasible at vertical lines (normal angle 0)
    lo0, hi0 = support_interval(square(0, 0), 0.0)
    lo1, hi1 = support_interval(square(10, 0), 0.0)
    assert max(lo0, lo1) >= min(hi0, hi1)
    oracle = sample_oracle(fam, 10_000)
    assert oracle.component_count == 1 and not oracle.full_circle


def test_three_squares_without_common_transversal():
    fam = PolygonFamily((square(0, 0), square(10, 0), square(5, 8)))
    summary = components(transversal_profile(fam))
    assert summary.component_count == 0
    assert not summary.full_circle
    assert summary.betti() == {"nonempty": False, "b0": 0, "b1": 0}
    assert sample_oracle(fam, 10_000).component_count == 0


def test_monotonicity_adding_member_shrinks_widths():
    base = random_polygon_family(3, seed=21)
    extra = random_polygon_family(1, seed=99).members[0]
    bigger = PolygonFamily(base.members + (extra,))
    for k in range(720):
        theta = k * math.pi / 720
        w1 = min(support_interval(p, theta)[1] for p in base.members) - \
            max(support_interval(p, theta)[0] for p in base.members)
        w2 = min(support_interval(p, theta)[1] for p in bigger.members) - \
            max(support_interval(p, theta)[0] for p in bigger.members)
        assert w2 <= w1 + 1e-12


# the four axis panels (1,0) -> (0,1) -> (-1,0) -> (0,-1) -> (1,0)
AXIS_PANELS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _axis_profile(boundary_signs, panel_signs) -> TransversalProfile:
    """A hand-built profile over the four axis panels with the given signs."""
    panels = tuple(
        Panel(AXIS_PANELS[k], AXIS_PANELS[(k + 1) % 4], 0, (0, 0), 0, (0, 0), sign)
        for k, sign in enumerate(panel_signs)
    )
    return TransversalProfile(1, panels, tuple(boundary_signs))


@pytest.mark.parametrize("boundary_signs, panel_signs, message", [
    ([1, -1, -1, -1], [-1, -1, -1, -1], "isolated boundary point"),
    ([-1, -1, -1, -1], [1, -1, -1, -1], "antipodal pairs"),
    ([-1, -1, -1, -1], [1, 1, -1, -1], r"one member in \[0, pi\)"),
], ids=["isolated-point", "unpaired-arc", "both-arcs-upper"])
def test_components_raise_on_an_inconsistent_profile(boundary_signs, panel_signs, message):
    with pytest.raises(InvariantViolation, match=message):
        components(_axis_profile(boundary_signs, panel_signs))


def test_sample_oracle_single_square():
    assert sample_oracle(PolygonFamily((UNIT_SQUARE,)), 1024).full_circle


def test_sample_oracle_resolution_contract():
    with pytest.raises(ContractViolation):
        sample_oracle(PolygonFamily((UNIT_SQUARE,)), 4)


def _brute_force_runs(flags) -> list:
    """Every maximal true run as (first, last), found from each run start
    (a true flag after a false one), listed from the first false flag on."""
    n = len(flags)
    runs = []
    for first in range(n):
        if flags[first] and not flags[first - 1]:
            last = first
            while flags[(last + 1) % n]:
                last = (last + 1) % n
            runs.append((first, last))
    start_at = flags.index(False)
    return sorted(runs, key=lambda run: (run[0] - start_at) % n)


def test_cyclic_runs_wrap_past_index_zero():
    assert _cyclic_runs([True, False, True, True]) == [(2, 0)]
    assert _cyclic_runs([True, True, False, True, False]) == [(3, 3), (0, 1)]
    assert _cyclic_runs([False, True, False, True]) == [(1, 1), (3, 3)]
    assert _cyclic_runs([False]) == []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flags=st.lists(st.booleans(), min_size=1, max_size=40), shift=st.integers(0, 39))
def test_cyclic_runs_match_brute_force(flags, shift):
    # a rotation puts runs across index 0 as often as not
    flags = flags + [False]
    shift %= len(flags)
    flags = flags[shift:] + flags[:shift]
    runs = _cyclic_runs(flags)
    assert runs == _brute_force_runs(flags)
    covered = [i for first, last in runs
               for i in range(first, first + (last - first) % len(flags) + 1)]
    assert sorted(i % len(flags) for i in covered) == [i for i, f in enumerate(flags) if f]


def test_exact_matches_oracle_on_random_families():
    guard = 4 * math.pi / 4096
    for seed in range(40):
        fam = random_polygon_family(1 + seed % 5, seed=seed)
        exact = components(transversal_profile(fam))
        oracle = sample_oracle(fam, 4096)
        if exact.min_arc_width is None or exact.min_arc_width >= guard:
            assert exact.component_count == oracle.component_count, seed
            assert exact.full_circle == oracle.full_circle, seed


def _float_narrow(width):
    """Whether a float width is below NARROW_FEATURE_WIDTH, or None within
    1e-9 of the threshold or of a full turn, where float angles cannot
    decide."""
    if abs(width - NARROW_FEATURE_WIDTH) < 1e-9 or width > TWO_PI - 1e-9:
        return None
    return width < NARROW_FEATURE_WIDTH


def test_narrow_decisions_match_float_widths_away_from_the_threshold():
    rng = random.Random("narrow-arcs")
    decided = set()
    for _ in range(20000):
        start = TWO_PI * rng.random()
        turn = rng.choice([2 * NARROW_FEATURE_WIDTH, TWO_PI]) * rng.random()
        radius = rng.choice([10, 10 ** 3, 10 ** 6])
        p = (round(radius * math.cos(start)), round(radius * math.sin(start)))
        q = (round(radius * math.cos(start + turn)), round(radius * math.sin(start + turn)))
        if p == (0, 0) or q == (0, 0):
            continue
        p, q = _primitive(*p), _primitive(*q)
        expected = _float_narrow((_angle(q) - _angle(p)) % TWO_PI)
        if expected is not None:
            assert _narrow(p, q) == expected, (p, q)
            decided.add(expected)
    assert decided == {True, False}
    assert _narrow((3, 4), (3, 4))  # a gap of width 0 sits at a puncture


def test_narrow_flags_match_float_widths_away_from_the_threshold():
    kinds = set()
    families = [PUNCTURED_TRIPLE]
    for seed in (4, 6, 9, 14):
        for jitter in (0.05, 0.6, 1.2):
            fam = random_stabbed_family(6, seed, jitter=jitter)
            families += [subfamily(fam, sub) for k in (2, 3)
                         for sub in itertools.combinations(range(6), k)]
    for fam in families:
        summary = components(transversal_profile(fam))
        flagged = {dict(f)["kind"] for f in summary.flags}
        for kind, width in (("narrow_arc", summary.min_arc_width),
                            ("narrow_gap", summary.min_gap_width)):
            if width is not None and _float_narrow(width) is not None:
                assert (kind in flagged) == _float_narrow(width), (kind, width)
        kinds |= flagged
    assert {"narrow_arc", "narrow_gap"} <= kinds


# --- disjointness ----------------------------------------------------------


def test_disjointness_pairwise():
    fam = PolygonFamily((square(0, 0), square(3, 0), square(6, 0)))
    assert disjointness_class(fam) == "pairwise_disjoint"


def test_disjointness_neither():
    fam = PolygonFamily((square(0, 0), square(0.3, 0), square(0, 0.3)))
    assert disjointness_class(fam) == "neither"


def test_disjointness_semipairwise_with_one_overlap():
    # A and B overlap; C and D are far from everything: every triple
    # contains a disjoint pair
    a, b, c, d = square(0, 0), square(0.5, 0), square(6, 0), square(9, 0)
    fam = PolygonFamily((a, b, c, d))
    assert disjointness_class(fam) == "semipairwise_disjoint"
    # explicit enumeration of the defining property
    import itertools

    polys = [a, b, c, d]
    for i, j, k in itertools.combinations(range(4), 3):
        assert (
            polygons_disjoint(polys[i], polys[j])
            or polygons_disjoint(polys[i], polys[k])
            or polygons_disjoint(polys[j], polys[k])
        )


def test_touching_boundaries_count_as_disjoint():
    a = square(0, 0)  # occupies [-1/2, 1/2]
    b = square(1, 0)  # occupies [1/2, 3/2]
    assert polygons_disjoint(a, b)


def _interiors_overlap_reference(verts_a, verts_b) -> bool:
    """Separating-axis oracle: both polygons projected onto every edge
    normal of either, open intervals compared in both orders."""
    for verts in (verts_a, verts_b):
        n = len(verts)
        for i in range(n):
            v, w = verts[i], verts[(i + 1) % n]
            axis = (w[1] - v[1], -(w[0] - v[0]))
            max_a = max(p[0] * axis[0] + p[1] * axis[1] for p in verts_a)
            min_a = min(p[0] * axis[0] + p[1] * axis[1] for p in verts_a)
            max_b = max(p[0] * axis[0] + p[1] * axis[1] for p in verts_b)
            min_b = min(p[0] * axis[0] + p[1] * axis[1] for p in verts_b)
            if max_a <= min_b or max_b <= min_a:
                return False
    return True


def _reference_convex_hull(points):
    """`_convex_hull` as two chains: Andrew's lower and upper chains built
    apart and joined, each without its last point."""
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


def _hull_point_sets():
    """Seeded point sets: in 3x3 and 5x5 boxes, with duplicates, collinear
    runs and fewer than 3 distinct points, and near a circle on the draws'
    1/10**4 lattice."""
    rng = random.Random("hull-point-sets")
    for box in (3, 5):
        for _ in range(3000):
            yield [(rng.randrange(box), rng.randrange(box)) for _ in range(rng.randint(1, 9))]
    for _ in range(3000):
        cx, cy, radius = rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(0.01, 1.0)
        points = []
        for _ in range(rng.randint(1, 16)):
            ang, rr = rng.uniform(0.0, math.tau), radius * rng.uniform(0.72, 1.0)
            points.append((round((cx + rr * math.cos(ang)) * 10 ** 4),
                           round((cy + rr * math.sin(ang)) * 10 ** 4)))
        yield points


def test_convex_hull_matches_the_two_chain_reference():
    sizes = Counter()
    for points in _hull_point_sets():
        hull = _convex_hull(points)
        assert hull == _reference_convex_hull(points), points
        sizes[min(len(hull), 3)] += 1
        if len(hull) >= 3:
            # a strictly convex CCW cycle of the points, from the least one
            assert hull[0] == min(points) and set(hull) <= set(points)
            for a, b, c in zip(hull, hull[1:] + hull[:1], hull[2:] + hull[:2]):
                assert (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) > 0
    # 1, 2 and at least 3 hull points all come up, many times each
    assert min(sizes.values()) > 100 and len(sizes) == 3


@functools.cache
def _lattice_hulls() -> list:
    """Hulls of point sets on a 5x5 lattice: they meet at corners, share
    edges, contain one another and repeat, so every boundary case comes up."""
    rng = random.Random("lattice-overlap")
    polys = set()
    while len(polys) < 90:
        points = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(3, 6))]
        hull = _convex_hull(points)
        if len(hull) >= 3:
            polys.add(tuple(hull))
    return sorted(polys)


def test_interiors_overlap_matches_reference_on_lattice_pairs():
    verdicts = set()
    for a, b in itertools.product(_lattice_hulls(), repeat=2):
        expected = _interiors_overlap_reference(a, b)
        assert _interiors_overlap(a, b) == expected, (a, b)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_interiors_overlap_matches_reference_on_stabbed_families():
    for seed in range(10):
        for jitter in (0.05, 0.4, 1.2):
            _, polys = random_stabbed_family(6, seed, jitter=jitter)._int_data
            for a, b in itertools.permutations(polys, 2):
                assert _interiors_overlap(a, b) == _interiors_overlap_reference(a, b)


def _reference_walk_form(verts) -> tuple:
    """`_walk_form` with its helper calls: the lowest (then leftmost) vertex
    first, each edge vector and each edge's primitive outward normal."""
    start = min(range(len(verts)), key=lambda k: (verts[k][1], verts[k][0]))
    verts = verts[start:] + verts[:start]
    edges = tuple(
        (wx - vx, wy - vy) for (vx, vy), (wx, wy) in zip(verts, verts[1:] + verts[:1])
    )
    normals = tuple(_primitive(ey, -ex) for ex, ey in edges)
    return verts, edges, normals


def _reference_walk_zeros(f_form, g_form, sign: int) -> list:
    """`_walk_zeros` with its helper calls: the merge walk over two
    reference walk forms' normals, and every zero of h_F + sign * h_G."""
    out = []
    fv, fe, fn = f_form
    gv, ge, gn = g_form
    nf, ng = len(fv), len(gv)
    # the first arc opens at the later of the two last normals
    p = gn[-1] if _cross(fe[-1], ge[-1]) >= 0 else fn[-1]
    i = j = 0
    while i < nf or j < ng:
        f, g = fv[i % nf], gv[j % ng]
        turn = 1 if j == ng else -1 if i == nf else _cross(fe[i], ge[j])
        if turn >= 0:
            q = fn[i]
            i += 1
            if turn == 0:
                j += 1
        else:
            q = gn[j]
            j += 1
        x = (f[0] + sign * g[0], f[1] + sign * g[1])
        at_p = x[0] * p[0] + x[1] * p[1]
        if x == (0, 0):
            out += (p, q)
        elif at_p == 0:
            out.append(p)
        else:
            at_q = x[0] * q[0] + x[1] * q[1]
            if at_q != 0 and (at_p > 0) != (at_q > 0):
                r = _primitive(-x[1], x[0])
                out.append(r if _cross(p, r) > 0 else _neg(r))
        p = q
    return out


def _assert_walk_matches_reference(a, b):
    # sign -1 on (a, b) finds max-support crossings, sign +1 on (a, -b) a
    # pair's roots; the other two cover sums the kernel never forms
    neg_b = tuple((-x, -y) for x, y in b)
    for g, sign in ((b, -1), (neg_b, 1), (b, 1), (neg_b, -1)):
        expected = _reference_walk_zeros(_reference_walk_form(a), _reference_walk_form(g), sign)
        zeros = _walk_zeros(_walk_form(a), _walk_form(g), sign)
        assert zeros == expected, (a, g, sign)
        assert all(math.gcd(*d) == 1 for d in zeros), (a, g, sign)


def test_walk_matches_reference_on_lattice_pairs():
    for a, b in itertools.product(_lattice_hulls(), repeat=2):
        _assert_walk_matches_reference(a, b)


@pytest.mark.parametrize("factor", [10 ** 4, 6])
def test_walk_matches_reference_on_scaled_lattice_pairs(factor):
    # no edge vector of a scaled hull is primitive, so neither is any
    # normal the walk reads off an edge: each zero it reports, at an arc's
    # start or across an arc, must be divided by its gcd
    hulls = [tuple((x * factor, y * factor) for x, y in verts) for verts in _lattice_hulls()]
    for a, b in itertools.product(hulls, repeat=2):
        _assert_walk_matches_reference(a, b)


def test_walk_matches_reference_on_stabbed_families():
    for seed in range(10):
        for jitter in (0.05, 0.4, 1.2):
            _, polys = random_stabbed_family(6, seed, jitter=jitter)._int_data
            for a, b in itertools.permutations(polys, 2):
                _assert_walk_matches_reference(a, b)


def _assert_negated_form_matches_walk_form(polys):
    for verts in polys:
        neg = tuple((-x, -y) for x, y in verts)
        assert _negated_form(_walk_form(verts)) == _walk_form(neg), verts


def test_negated_form_matches_the_walk_form_of_the_negation():
    _assert_negated_form_matches_walk_form(_lattice_hulls())
    for path in sorted(CORPUS.glob("poly*.json")):
        _assert_negated_form_matches_walk_form(load_polygon_family(path)._int_data[1])
    for m in (6, 7, 8):
        for seed in range(10):
            for jitter in (0.05, 0.4, 1.2):
                _, polys = random_stabbed_family(m, seed, jitter=jitter)._int_data
                _assert_negated_form_matches_walk_form(polys)


def test_edge_touching_pair_flags_tangent_direction():
    # squares sharing a full edge: the line along the shared edge touches
    # both boundaries but neither interior, so its direction is an isolated
    # infeasible point, flagged and classified infeasible
    a, b = square(0, 0), square(1, 0)
    summary = components(transversal_profile(PolygonFamily((a, b))))
    assert summary.component_count == 1
    assert not summary.full_circle
    kinds = {dict(f)["kind"] for f in summary.flags}
    assert "tangent_direction" in kinds
    # the pair is still separated, so the connectivity lemma applies
    assert verify_transversal("lemma-312", PolygonFamily((a, b))).passed


# --- lemma verifiers -------------------------------------------------------


def test_lemma_311_unit_square():
    assert verify_transversal("lemma-311", PolygonFamily((UNIT_SQUARE,))).passed


def test_lemma_311_random_polygons():
    import random

    rng = random.Random("lemma311-test")
    for _ in range(12):
        poly = random_convex_polygon(rng, (rng.uniform(-3, 3), rng.uniform(-3, 3)),
                                     rng.uniform(0.4, 2.0), rng.randint(3, 16))
        verdict = verify_transversal("lemma-311", PolygonFamily((poly,)))
        assert verdict.passed
        assert sample_oracle(PolygonFamily((poly,)), 2048).full_circle


def test_lemma_311_thin_triangle():
    thin = ConvexPolygon(((0, 0), (10, 1), (0, 2)))
    assert verify_transversal("lemma-311", PolygonFamily((thin,))).passed


def test_lemma_312_horizontal_and_vertical_pairs():
    assert verify_transversal("lemma-312", PolygonFamily((square(0, 0), square(5, 0)))).passed
    assert verify_transversal("lemma-312", PolygonFamily((square(0, 0), square(0, 5)))).passed


def test_lemma_312_rejects_overlap():
    with pytest.raises(ContractViolation):
        verify_transversal("lemma-312", PolygonFamily((square(0, 0), square(0.25, 0))))


def test_lemma_313_collinear_triple():
    verdict = verify_transversal(
        "lemma-313", PolygonFamily((square(0, 0), square(5, 0), square(10, 0)))
    )
    assert verdict.passed
    assert verdict.summary.component_count >= 1


def test_lemma_313_third_overlapping_both():
    big = ConvexPolygon(((-1, -2), (6, -2), (6, 2), (-1, 2)))
    verdict = verify_transversal("lemma-313", PolygonFamily((square(0, 0), square(5, 0), big)))
    assert verdict.passed


def test_lemma_313_empty_transversal_space():
    verdict = verify_transversal(
        "lemma-313", PolygonFamily((square(0, 0), square(5, 0), square(2.5, 50)))
    )
    assert verdict.passed
    assert verdict.summary.component_count == 0


def test_lemma_313_requires_disjoint_pair():
    with pytest.raises(ContractViolation):
        verify_transversal(
            "lemma-313", PolygonFamily((square(0, 0), square(0.25, 0), square(5, 0)))
        )


@pytest.mark.parametrize(
    "tag, members, bad_summaries",
    [
        ("lemma-311", (UNIT_SQUARE,),
         [ComponentSummary(1, False, ((0.0, 1.0),)), ComponentSummary(0, False, ())]),
        ("lemma-312", (square(0, 0), square(5, 0)),
         [ComponentSummary(1, True, ((0.0, math.pi),)), ComponentSummary(0, False, ()),
          ComponentSummary(2, False, ((0.0, 0.5), (1.0, 1.5)))]),
        ("lemma-313", (square(0, 0), square(5, 0), square(10, 0)),
         [ComponentSummary(1, True, ((0.0, math.pi),))]),
    ],
)
def test_lemma_rows_fail_on_a_contradicting_summary(monkeypatch, tag, members, bad_summaries):
    # a lemma always holds, so its row's test of the summary is checked on
    # summaries the lemma rules out; the row reads `components` at call
    # time, as a tracer's rebinding needs
    family = PolygonFamily(members)
    assert verify_transversal(tag, family).passed
    for bad in bad_summaries:
        monkeypatch.setattr(transversal_plane, "components", lambda profile, bad=bad: bad)
        verdict = verify_transversal(tag, family)
        assert not verdict.passed and not verdict.conclusion_holds
        assert verdict.to_dict()["observed"] == bad.to_dict()


# --- thm-321 ----------------------------------------------------------------


def test_theorem_321_stabbed_squares():
    fam = PolygonFamily(tuple(square(3 * i, 0) for i in range(6)))
    verdict = verify_theorem_321(fam)
    assert verdict.hypotheses_hold
    assert verdict.conclusion_holds


def test_theorem_321_failing_subfamily_is_pinpointed():
    # four members at the corners of a big square admit no common line, so
    # some size-4 (and size-5) checks fail; the ledger names the subfamily
    members = (
        square(0, 0), square(12, 0), square(0, 12), square(12, 12),
        square(6, 0), square(6, 12),
    )
    verdict = verify_theorem_321(PolygonFamily(members))
    assert not verdict.hypotheses_hold
    failing = [dict(c) for c in verdict.checks if not dict(c)["pass"]]
    assert failing
    assert any(c["check"] == "size4_connected" and set(c["indices"]) == {0, 1, 2, 3}
               for c in failing)


# the pair-arc kernel against the profile oracle

# no horizontal line meets both the triangle P1 (y < 1) and the square P2
# (y > 1), but lines tilted slightly either way through the apex (1, 1) meet
# all three members: the horizontal direction is a puncture that splits the
# feasible set into 2 components
PUNCTURED_TRIPLE = PolygonFamily((
    ConvexPolygon(((0, 0), (2, 0), (1, 1))),
    ConvexPolygon(((0, 1), (3, 1), (3, 4), (0, 4))),
    ConvexPolygon(((5, "1/2"), (6, "1/2"), (6, "3/2"), (5, "3/2"))),
))


def _all_subsets(m):
    return [c for k in range(1, m + 1) for c in itertools.combinations(range(m), k)]


def _counts(kernel, subsets) -> list:
    """`_subfamily_counts` of subfamilies given as index tuples, each as
    the list of its index pairs, as `verify_theorem_321`'s plan holds it."""
    return _subfamily_counts(kernel, [tuple(itertools.combinations(s, 2)) for s in subsets])


def _feasibility_sign_at(scaled_polys, d) -> int:
    """Sign of min_i max_v v.d - max_i min_v v.d at an exact direction."""
    upper = min(max(v[0] * d[0] + v[1] * d[1] for v in verts) for verts in scaled_polys)
    lower = max(min(v[0] * d[0] + v[1] * d[1] for v in verts) for verts in scaled_polys)
    diff = upper - lower
    return (diff > 0) - (diff < 0)


def _assert_boundary_signs_match_oracle(family, prof):
    _, polys = family._int_data
    for panel, sign in zip(prof.panels, prof.boundary_signs):
        assert sign == _feasibility_sign_at(polys, panel.start), panel


def _reference_profile(family):
    """The envelope sweep cut base panel by base panel: between two
    consecutive base events (edge normals and their negations) every
    member's argmax and argmin vertex is fixed, so the envelopes can switch
    members only where two of those vertices' sinusoids cross, and every
    such crossing inside the base panel cuts it."""
    scale, polys = family._int_data
    m = len(polys)

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]

    def neg(d):
        return (-d[0], -d[1])

    def argmax(verts, d):
        return max(verts, key=lambda v: dot(v, d))

    events = set()
    for verts in polys:
        for v, w in zip(verts, verts[1:] + verts[:1]):
            normal = _primitive(w[1] - v[1], v[0] - w[0])
            events.update((normal, neg(normal)))
    order = sorted(events, key=functools.cmp_to_key(_dir_cmp))

    panels = []
    for idx, p in enumerate(order):
        q = order[(idx + 1) % len(order)]
        t = (p[0] + q[0], p[1] + q[1])
        ups = [argmax(verts, t) for verts in polys]
        los = [argmax(verts, neg(t)) for verts in polys]
        cuts = set()
        for group in (ups, los):
            for a, b in itertools.combinations(group, 2):
                if a != b:
                    r = _primitive(b[1] - a[1], a[0] - b[0])
                    cuts.update(c for c in (r, neg(r)) if _strictly_inside(p, q, c))
        inner = sorted(cuts, key=functools.cmp_to_key(lambda r1, r2: -_cross(r1, r2)))
        stops = [p] + inner + [q]
        for s0, s1 in zip(stops, stops[1:]):
            t2 = (s0[0] + s1[0], s0[1] + s1[1])
            u_member = min(range(m), key=lambda i: (dot(ups[i], t2), i))
            l_member = max(range(m), key=lambda i: (dot(los[i], t2), -i))
            vu, vl = ups[u_member], los[l_member]
            w = (vu[0] - vl[0], vu[1] - vl[1])
            pieces = [(s0, s1)]
            if w != (0, 0):
                r = _primitive(-w[1], w[0])
                for root in (r, neg(r)):
                    if _strictly_inside(s0, s1, root):
                        pieces = [(s0, root), (root, s1)]
                        break
            for a0, a1 in pieces:
                diff = dot(w, (a0[0] + a1[0], a0[1] + a1[1]))
                panels.append(
                    Panel(a0, a1, u_member, vu, l_member, vl, (diff > 0) - (diff < 0))
                )
    signs = []
    for panel in panels:
        diff = dot(panel.upper_vertex, panel.start) - dot(panel.lower_vertex, panel.start)
        signs.append((diff > 0) - (diff < 0))
    return TransversalProfile(scale, tuple(panels), tuple(signs))


def _reference_pair_masks(fam):
    """Every pair evaluated at every element of the common cut (each root
    of every pair and the four axes, then the open gap after it): the table
    that `_pair_masks` fills run by run from each pair's own roots."""
    _, polys = fam._int_data
    pairs = list(itertools.combinations(range(fam.size), 2))
    zeros = set()
    for i, j in pairs:
        neg_j = tuple((-x, -y) for x, y in polys[j])
        zeros.update(
            _reference_walk_zeros(_reference_walk_form(polys[i]), _reference_walk_form(neg_j), 1)
        )
    roots = sorted(
        {(1, 0), (0, 1), (-1, 0), (0, -1)} | zeros | {(-x, -y) for x, y in zeros},
        key=functools.cmp_to_key(_dir_cmp),
    )
    elements = []
    for k, p in enumerate(roots):
        q = roots[(k + 1) % len(roots)]
        elements += [p, (p[0] + q[0], p[1] + q[1])]
    masks = {
        (i, j): sum(
            1 << e for e, d in enumerate(elements)
            if _feasibility_sign_at((polys[i], polys[j]), d) > 0
        )
        for i, j in pairs
    }
    return (1 << len(elements)) - 1, masks


def _assert_kernel_matches_oracle(fam):
    subsets = _all_subsets(fam.size)
    kernel = _pair_masks(fam)
    assert kernel == _reference_pair_masks(fam)
    counts = _counts(kernel, subsets)
    for subset, count in zip(subsets, counts):
        sub = subfamily(fam, subset)
        prof = transversal_profile(sub)
        assert prof == _reference_profile(sub), subset
        _assert_boundary_signs_match_oracle(sub, prof)
        assert count == components(prof).component_count, subset
    _assert_pair_roots_are_exact(fam)
    return counts


def _assert_pair_roots_are_exact(fam):
    """The Minkowski-difference walk gives each pair's roots exactly: every
    root makes the pair's envelopes meet, and every zero-sign panel start
    of the pair's profile that bounds its zero set (a neighbouring panel
    has a nonzero sign) is a root.  Every max-support crossing from the
    same walk over the two polygons makes their max supports equal."""
    _, polys = fam._int_data
    for i, j in itertools.combinations(range(fam.size), 2):
        a, b = polys[i], polys[j]
        neg_b = tuple((-x, -y) for x, y in b)
        zeros = _reference_walk_zeros(_reference_walk_form(a), _reference_walk_form(neg_b), 1)
        roots = set(zeros) | {(-x, -y) for x, y in zeros}
        for d in roots:
            assert _feasibility_sign_at((a, b), d) == 0, d
        prof = transversal_profile(subfamily(fam, (i, j)))
        for k, (panel, sign) in enumerate(zip(prof.panels, prof.boundary_signs)):
            if sign == 0 and (panel.feasible_sign or prof.panels[k - 1].feasible_sign):
                assert panel.start in roots, panel
        for d in _reference_walk_zeros(_reference_walk_form(a), _reference_walk_form(b), -1):
            assert max(v[0] * d[0] + v[1] * d[1] for v in a) == \
                max(v[0] * d[0] + v[1] * d[1] for v in b), d


@pytest.mark.parametrize("m", [6, 7, 8])
def test_subfamily_counts_match_profile_on_stabbed_families(m):
    for seed, jitter in enumerate((0.05, 0.6, 1.2)):
        fam = random_stabbed_family(m, seed, jitter=jitter)
        counts = _assert_kernel_matches_oracle(fam)
        verdict = verify_theorem_321(fam)
        assert verdict.component_count == counts[-1]
        assert verdict.witness == components(transversal_profile(fam)).to_dict()


def test_subfamily_counts_match_profile_on_random_families():
    counts = []
    for seed in range(60):
        fam = random_polygon_family(5, box=(-4, 4, -4, 4), seed=seed)
        counts += _assert_kernel_matches_oracle(fam)
    assert max(counts) >= 2


def test_subfamily_counts_match_profile_on_lattice_families():
    # lattice members touch and overlap, so the 0- and 2-root branches of
    # `_pair_masks` run under the differential, not on fixtures alone
    roots = Counter()
    for seed in range(300):
        fam = lattice_family(3 + seed % 3, seed)
        _assert_kernel_matches_oracle(fam)
        _, polys = fam._int_data
        roots.update(len(_own_roots(polys, i, j))
                     for i, j in itertools.combinations(range(fam.size), 2))
    assert roots[0] >= 200 and roots[2] >= 90


@pytest.mark.parametrize("members, kind, count", [
    ((square(0, 0), square(0.25, 0)), None, 1),  # overlap: full circle
    ((square(0, 0), square(1, 0)), "tangent_direction", 1),
    ((square(0, 0), square(1, 1)), "coincident_support_arc", 1),
    (PUNCTURED_TRIPLE.members, "tangent_direction", 2),
    ((square(0, 0), square(0, 0)), None, 1),  # duplicate: full circle
], ids=["overlapping-pair", "edge-touching", "corner-touching", "puncture", "duplicate"])
def test_subfamily_counts_match_profile_on_edge_cases(members, kind, count):
    fam = PolygonFamily(members)
    whole = components(transversal_profile(fam))
    assert whole.component_count == count
    assert whole.full_circle == (kind is None)
    if kind is not None:
        assert kind in {dict(f)["kind"] for f in whole.flags}
    assert _assert_kernel_matches_oracle(fam)[-1] == count


def _own_roots(polys, i, j):
    """Pair (i, j)'s roots Z and -Z, Z the zeros of h_K for K = P_i - P_j."""
    neg_j = tuple((-x, -y) for x, y in polys[j])
    zeros = _walk_zeros(_walk_form(polys[i]), _walk_form(neg_j), 1)
    return set(zeros) | {(-x, -y) for x, y in zeros}


# one pair per contact case of K = P1 - P2, with its root count
CONTACT_PAIRS = {
    # 0 inside K
    "overlapping": ((square(0, 0), square(0.25, 0.125)), 0),
    "identical": ((square(0, 0), square(0, 0)), 0),
    # 0 inside an edge of K
    "vertex-on-edge": (
        (square(0, 0), ConvexPolygon((("1/2", 0), (2, -1), (2, 1)))), 2),
    "collinear-edges": ((square(0, 0), square(1, 0.5)), 2),
    # 0 at a vertex of K, or outside K
    "vertex-on-vertex": (
        (ConvexPolygon(((-2, -1), (0, 0), (-2, 1))), ConvexPolygon(((0, 0), (3, -1), (3, 2)))),
        4),
    "separated": ((square(0, 0), square(3, 1)), 4),
}


@pytest.mark.parametrize("name", list(CONTACT_PAIRS))
def test_pair_masks_on_every_contact_case(name):
    pair, n_roots = CONTACT_PAIRS[name]
    # a third member away from both gives the pair's mask something to AND
    fam = PolygonFamily(pair + (square(1, 6),))
    _, polys = fam._int_data
    assert len(_own_roots(polys, 0, 1)) == n_roots
    # the kernel against the every-element table and every subfamily's
    # count against components(transversal_profile(...))
    _assert_kernel_matches_oracle(fam)


@pytest.mark.parametrize("drop", [0, -1], ids=["first", "last"])
def test_pair_masks_raise_on_a_dropped_zero(monkeypatch, drop):
    # every pair of the family has 4 roots; a walk that loses one zero
    # leaves 2, and the pair then fails on one side of them only
    fam = PolygonFamily(tuple(
        ConvexPolygon(((x, y), (x + 2, y + 1), (x + 1, y + 3))) for x, y in [(0, 0), (5, 1), (1, 8)]
    ))
    _, polys = fam._int_data
    assert all(len(_own_roots(polys, i, j)) == 4 for i, j in [(0, 1), (0, 2), (1, 2)])
    walk = transversal_kernel._walk_zeros

    def mutant(f_form, g_form, sign):
        zeros = walk(f_form, g_form, sign)
        del zeros[drop]
        return zeros

    monkeypatch.setattr(transversal_kernel, "_walk_zeros", mutant)
    with pytest.raises(InvariantViolation, match="2 roots"):
        _pair_masks(fam)


def _one_gap_phase_masks(fam) -> dict:
    """Every 4-root pair's mask with its phase set as `_pair_masks` once
    set it, by one evaluation on the open gap after the pair's first root
    in the common cut: the run from that root to the next passes iff the
    gap does, and the runs alternate.  Maps each such pair to its mask and
    whether that gap passes."""
    _, polys = fam._int_data
    own = {pair: _own_roots(polys, *pair) for pair in itertools.combinations(range(fam.size), 2)}
    roots = sorted(set(AXES).union(*own.values()), key=functools.cmp_to_key(_dir_cmp))
    n = len(roots)
    full = (1 << (2 * n)) - 1

    def run(a, b):
        return (1 << (2 * b)) - (1 << (2 * a + 1)) + (full if b <= a else 0)

    masks = {}
    for (i, j), pair_roots in own.items():
        if len(pair_roots) != 4:
            continue
        a, b, c, d = sorted(roots.index(r) for r in pair_roots)
        p, q = roots[a], roots[(a + 1) % n]
        passes = _feasibility_sign_at((polys[i], polys[j]), (p[0] + q[0], p[1] + q[1])) > 0
        masks[(i, j)] = (run(a, b) | run(c, d) if passes else run(b, c) | run(d, a), passes)
    return masks


def _assert_zero_phase_matches_one_gap_phase(fam) -> list:
    """The kernel's 4-root masks against `_one_gap_phase_masks`; returns
    whether the gap after the first root passes, pair by pair."""
    _, masks = _pair_masks(fam)
    phases = []
    for pair, (mask, passes) in _one_gap_phase_masks(fam).items():
        assert masks[pair] == mask, pair
        phases.append(passes)
    return phases


def test_zero_phase_matches_the_one_gap_evaluation_on_stabbed_families():
    phases = []
    for m in (6, 7, 8):
        for seed in range(8):
            for jitter in (0.05, 0.4, 1.2):
                phases += _assert_zero_phase_matches_one_gap_phase(
                    random_stabbed_family(m, seed, jitter=jitter)
                )
    # both phases come up, each many times
    assert min(phases.count(True), phases.count(False)) > 100


@pytest.mark.parametrize("name", ["vertex-on-vertex", "separated"])
def test_zero_phase_matches_the_one_gap_evaluation_on_contact_pairs(name):
    pair, _ = CONTACT_PAIRS[name]
    fam = PolygonFamily(pair + (square(1, 6),))
    assert len(_assert_zero_phase_matches_one_gap_phase(fam)) == 3


@pytest.mark.parametrize("extra", ["antipode", "both-antipodes"])
def test_pair_masks_raise_on_non_adjacent_zeros(monkeypatch, extra):
    # the walk returns Z = {z, z'}; adding -z keeps the 4 roots but puts
    # two antipodal, so non-adjacent, roots in Z
    fam = random_stabbed_family(6, 0, jitter=0.4)
    walk = transversal_kernel._walk_zeros

    def mutant(f_form, g_form, sign):
        zeros = walk(f_form, g_form, sign)
        added = zeros[:1] if extra == "antipode" else sorted(set(zeros))
        return zeros + [(-x, -y) for x, y in added]

    monkeypatch.setattr(transversal_kernel, "_walk_zeros", mutant)
    zeros = 3 if extra == "antipode" else 4
    with pytest.raises(InvariantViolation, match=f"4 roots but {zeros} zeros"):
        _pair_masks(fam)


def test_pair_masks_raise_on_six_roots(monkeypatch):
    # three zeros in the upper half make six roots in the cut
    monkeypatch.setattr(transversal_kernel, "_walk_zeros",
                        lambda f_form, g_form, sign: [(1, 0), (0, 1), (1, 1)])
    fam = PolygonFamily((square(0, 0), square(10, 0)))
    with pytest.raises(InvariantViolation, match="has 6 roots, not 0, 2 or 4"):
        _pair_masks(fam)


# PUNCTURED_TRIPLE, then a bar that overlaps the small square P3 and a
# square P5 disjoint from P3, then a square further along: semipairwise but
# not pairwise disjoint, with 0-root pairs (P3, P4) and (P4, P5), the
# 2-root pair (P1, P2), whose members touch at the triangle's apex, and
# 4-root pairs.  The puncture splits many subfamilies' spaces in two.
SEMIPAIRWISE_FAMILY = PUNCTURED_TRIPLE.members + (
    ConvexPolygon((("9/2", "9/10"), (9, "9/10"), (9, "11/10"), ("9/2", "11/10"))),
    square(8.5, 1),
    square(12, 1),
)


def _eager_checks(fam) -> tuple:
    """`verify_theorem_321`'s check list as a verdict once built it, in
    full on every call."""
    m = fam.size
    cls = disjointness_class(fam)
    combos5 = list(itertools.combinations(range(m), 5))
    combos4 = list(itertools.combinations(range(m), 4))
    counts = _counts(_pair_masks(fam), combos5 + combos4)
    checks = [(("check", "semipairwise_disjoint"), ("observed", cls),
               ("pass", cls in ("pairwise_disjoint", "semipairwise_disjoint")))]
    for combo, count in zip(combos5, counts):
        checks.append((("check", "size5_nonempty"), ("indices", list(combo)),
                       ("observed", count), ("pass", count >= 1)))
    for combo, count in zip(combos4, counts[len(combos5):]):
        checks.append((("check", "size4_connected"), ("indices", list(combo)),
                       ("observed", count), ("pass", count == 1)))
    return tuple(checks)


@pytest.mark.parametrize("extra, whole", [((), 2), ((square(-2, 6),), 0)],
                         ids=["m6-two-components", "m7-no-transversal"])
def test_theorem_321_on_a_semipairwise_family(extra, whole):
    fam = PolygonFamily(SEMIPAIRWISE_FAMILY + extra)
    m = fam.size
    assert disjointness_class(fam) == "semipairwise_disjoint"
    _, polys = fam._int_data
    root_counts = {pair: len(_own_roots(polys, *pair))
                   for pair in itertools.combinations(range(m), 2)}
    assert {pair for pair, n in root_counts.items() if n != 4} == {(0, 1), (2, 3), (3, 4)}
    assert (root_counts[(0, 1)], root_counts[(2, 3)], root_counts[(3, 4)]) == (2, 0, 0)
    # the one fixture with 0-, 2- and 4-root pairs: the kernel's index
    # arithmetic on each root count against the every-element table
    assert _pair_masks(fam) == _reference_pair_masks(fam)

    verdict = verify_theorem_321(fam)
    checks = [dict(c) for c in verdict.checks]
    assert checks[0] == {
        "check": "semipairwise_disjoint", "observed": "semipairwise_disjoint", "pass": True
    }
    assert [c["indices"] for c in checks[1:]] == [
        list(c) for k in (5, 4) for c in itertools.combinations(range(m), k)
    ]
    for check in checks[1:]:
        summary = components(transversal_profile(subfamily(fam, check["indices"])))
        assert check["observed"] == summary.component_count, check
    observed = {c["observed"] for c in checks[1:]}
    assert observed == ({1, 2} if whole else {0, 1, 2})
    # some size-4 subfamily has two components, so the hypotheses fail
    assert not verdict.hypotheses_hold
    assert verdict.component_count == verdict.witness["component_count"] == whole
    assert verdict.conclusion_holds == (whole >= 1)
    assert verdict.checks == _eager_checks(fam)


def test_checks_match_the_eager_list():
    families = [PolygonFamily(SEMIPAIRWISE_FAMILY), PolygonFamily(
        (square(0, 0), square(12, 0), square(0, 12), square(12, 12), square(6, 0), square(6, 12))
    )]
    for m in (6, 7, 8):
        for seed in range(4):
            for jitter in (0.05, 0.4, 1.2):
                families.append(random_stabbed_family(m, seed, jitter=jitter))
    passes = set()
    for fam in families:
        verdict = verify_theorem_321(fam)
        assert "checks" not in vars(verdict)  # built only when read
        assert verdict.checks == _eager_checks(fam)
        passes.update(dict(c)["pass"] for c in verdict.checks)
    assert passes == {True, False}


CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


@pytest.mark.parametrize("name", ["poly1.json", "poly2.json", "poly3.json", "poly6.json"])
def test_profile_matches_reference_on_corpus_files(name):
    fam = load_polygon_family(CORPUS / name)
    assert transversal_profile(fam) == _reference_profile(fam)
    _assert_pair_roots_are_exact(fam)


def test_triple_audit_fires_on_a_full_disjoint_pair(monkeypatch):
    # P1 overlaps P2 and P3, which are disjoint, so P2-P3 is the triple's
    # disjoint pair; a kernel that gives that pair the full circle gives
    # the triple the full circle, which lemma-313 rules out
    bar = ConvexPolygon(((-3, -1), (3, -1), (3, 1), (-3, 1)))
    fam = PolygonFamily(
        (bar, square(-2, 0), square(2, 0), square(0, 20), square(0, 40), square(0, 60))
    )
    assert disjointness_class(fam) == "semipairwise_disjoint"
    verify_theorem_321(fam)

    kernel = transversal_kernel._pair_masks

    def mutant(family):
        full, masks = kernel(family)
        assert masks[(1, 2)] != full
        return full, {**masks, (1, 2): full}

    monkeypatch.setattr(transversal_kernel, "_pair_masks", mutant)
    # a fresh family: ``fam`` already holds the unpatched kernel
    with pytest.raises(InvariantViolation, match=r"pair \[1, 2\] has the full circle"):
        verify_theorem_321(PolygonFamily(fam.members))


def test_pair_check_fires_on_a_lone_full_disjoint_pair(monkeypatch):
    # one full pair makes no full triangle: without the pair check this
    # family reads as pairwise disjoint with its hypotheses holding
    fam = random_stabbed_family(6, 3, 0.3)
    kernel = transversal_kernel._pair_masks

    def mutant(family):
        full, masks = kernel(family)
        return full, {**masks, (0, 1): full}

    monkeypatch.setattr(transversal_kernel, "_pair_masks", mutant)
    with pytest.raises(InvariantViolation, match=r"pair \[0, 1\] has the full circle"):
        verify_theorem_321(fam)


def _assert_full_masks_are_overlaps(fam) -> int:
    """A pair's mask is full iff its interiors meet, by the separating-axis
    test; returns the number of full pairs."""
    _, polys = fam._int_data
    full, masks = _pair_masks(fam)
    for (i, j), mask in masks.items():
        assert (mask == full) == _interiors_overlap(polys[i], polys[j]), (i, j)
    return sum(mask == full for mask in masks.values())


def test_full_mask_iff_interiors_overlap_on_lattice_pairs():
    full_pairs = 0
    for a, b in itertools.combinations_with_replacement(_lattice_hulls(), 2):
        fam = PolygonFamily((ConvexPolygon._lattice(a, 1), ConvexPolygon._lattice(b, 1)))
        full_pairs += _assert_full_masks_are_overlaps(fam)
    # corner and edge contacts, containment and repeats: both answers occur
    assert 0 < full_pairs < len(_lattice_hulls()) * (len(_lattice_hulls()) + 1) // 2


def test_full_mask_iff_interiors_overlap_on_stabbed_and_semipairwise_families():
    for seed in range(10):
        for jitter in (0.05, 0.4, 1.2):
            assert _assert_full_masks_are_overlaps(random_stabbed_family(6, seed, jitter)) == 0
    # the 0-root pairs (P3, P4) and (P4, P5) overlap
    assert _assert_full_masks_are_overlaps(PolygonFamily(SEMIPAIRWISE_FAMILY)) == 2


def _reference_disjointness_class(fam) -> str:
    """The class from the separating-axis oracle on every pair."""
    _, polys = fam._int_data
    overlap = {
        (i, j) for i, j in itertools.combinations(range(fam.size), 2)
        if _interiors_overlap_reference(polys[i], polys[j])
    }
    if not overlap:
        return "pairwise_disjoint"
    if any({(i, j), (i, k), (j, k)} <= overlap
           for i, j, k in itertools.combinations(range(fam.size), 3)):
        return "neither"
    return "semipairwise_disjoint"


def _assert_class_matches_reference(fam):
    """The family's class and its thm-321 verdict's against the every-pair
    reference; returns the verdict."""
    expected = _reference_disjointness_class(fam)
    assert disjointness_class(fam) == expected
    verdict = verify_theorem_321(fam)
    assert verdict.disjointness == expected
    return verdict


def test_disjointness_class_matches_the_every_pair_reference():
    classes = set()
    for disjointness in (None, "pairwise_disjoint", "semipairwise_disjoint"):
        for seed in range(8):
            fam = random_polygon_family(6, box=(-3, 3, -3, 3), disjointness=disjointness,
                                        seed=seed)
            classes.add(_assert_class_matches_reference(fam).disjointness)
    assert classes == {"pairwise_disjoint", "semipairwise_disjoint", "neither"}
    # lattice families hold thm-321's hypotheses in the semipairwise case,
    # which no sweep draws
    classes, held = Counter(), Counter()
    for seed in range(300):
        verdict = _assert_class_matches_reference(lattice_family(6, seed))
        classes[verdict.disjointness] += 1
        if verdict.hypotheses_hold:
            assert verdict.conclusion_holds, seed
            held[verdict.disjointness] += 1
    assert classes["semipairwise_disjoint"] >= 200 and held["semipairwise_disjoint"] >= 95
    assert sum(held.values()) >= 105


def test_verify_runs_the_separating_axis_test_only_on_full_pairs(monkeypatch):
    calls = []
    overlap = transversal_kernel._interiors_overlap

    def counted(verts_a, verts_b):
        calls.append((verts_a, verts_b))
        return overlap(verts_a, verts_b)

    # the draw runs the test itself, to place its members
    disjoint = random_stabbed_family(6, 3, jitter=0.4)
    monkeypatch.setattr(transversal_kernel, "_interiors_overlap", counted)
    assert verify_theorem_321(disjoint).disjointness == "pairwise_disjoint"
    assert calls == []

    fam = PolygonFamily(SEMIPAIRWISE_FAMILY)
    assert verify_theorem_321(fam).disjointness == "semipairwise_disjoint"
    _, polys = fam._int_data
    assert calls == [(polys[2], polys[3]), (polys[3], polys[4])]


def test_verify_builds_the_kernel_once_per_family(monkeypatch):
    built = []
    kernel = transversal_kernel._pair_masks

    def counted(family):
        built.append(family)
        return kernel(family)

    monkeypatch.setattr(transversal_kernel, "_pair_masks", counted)
    fam = PolygonFamily(SEMIPAIRWISE_FAMILY)
    verdict = verify_theorem_321(fam)
    verdict.to_dict()
    verify_theorem_321(fam)
    assert disjointness_class(fam) == verdict.disjointness
    assert built == [fam]


def test_witness_disagreeing_with_the_kernel_raises(monkeypatch, capsys):
    path = CORPUS / "poly6.json"
    fam = load_polygon_family(path)
    assert verify_theorem_321(fam).to_dict()["witness"]["component_count"] == 1
    counts = transversal_plane._subfamily_counts

    def mutant(kernel, pair_lists):
        out = counts(kernel, pair_lists)
        return out[:-1] + [out[-1] + 1]

    monkeypatch.setattr(transversal_plane, "_subfamily_counts", mutant)
    with pytest.raises(InvariantViolation, match="pair-mask kernel 2"):
        verify_theorem_321(fam).to_dict()
    assert main(["verify", "thm-321", "--in", str(path)]) == 1
    assert capsys.readouterr().out == ""


def test_subfamily_counts_raise_on_an_odd_number_of_run_starts():
    # one feasible run with no antipodal partner on an 8-element circle
    kernel = (0xFF, {(0, 1): 0b11})
    with pytest.raises(InvariantViolation, match="antipodal pairs"):
        _counts(kernel, [(0, 1)])


def test_thm321_sweep_builds_no_profile(monkeypatch):
    def no_profile(family):
        raise AssertionError("the sweep built an envelope profile")

    # in every package module that binds it, so that no caller reaches it
    for name, module in list(sys.modules.items()):
        if name.startswith("helly_topo") and \
                getattr(module, "transversal_profile", None) is transversal_profile:
            monkeypatch.setattr(module, "transversal_profile", no_profile)
    rep = sweep_transversal("thm-321", 6, seed=4, m=6)
    assert rep.trials == 6 and rep.conclusion_violated == 0


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10 ** 6),
    jitter=st.floats(0.05, 1.2),
    perm=st.permutations(range(6)),
)
def test_member_permutations_preserve_counts(seed, jitter, perm):
    fam = random_stabbed_family(6, seed, jitter=jitter)
    image = PolygonFamily(tuple(fam.members[k] for k in perm))
    subsets = _all_subsets(fam.size)
    counts = dict(zip(subsets, _counts(_pair_masks(fam), subsets)))
    for subset, count in zip(subsets, _counts(_pair_masks(image), subsets)):
        assert count == counts[tuple(sorted(perm[k] for k in subset))], subset
    before, after = verify_theorem_321(fam), verify_theorem_321(image)
    assert after.hypotheses_hold == before.hypotheses_hold
    assert after.conclusion_holds == before.conclusion_holds
    assert after.witness["component_count"] == before.witness["component_count"]


def _affine_image(fam, shear, turns, shift):
    """Image under an integer shear, quarter turns and a rational shift;
    every map has determinant 1, so vertex cycles stay counterclockwise."""
    members = []
    for poly in fam.members:
        verts = []
        for x, y in vertices(poly):
            x, y = x + shear * y, y
            for _ in range(turns):
                x, y = -y, x
            verts.append((x + shift[0], y + shift[1]))
        members.append(ConvexPolygon(tuple(verts)))
    return PolygonFamily(tuple(members), fam.labels)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10 ** 6),
    jitter=st.floats(0.05, 1.2),
    shear=st.integers(-3, 3),
    turns=st.integers(0, 3),
    shift=st.tuples(
        st.fractions(-20, 20, max_denominator=12), st.fractions(-20, 20, max_denominator=12)
    ),
)
def test_affine_maps_preserve_counts(seed, jitter, shear, turns, shift):
    fam = random_stabbed_family(6, seed, jitter=jitter)
    image = _affine_image(fam, shear, turns, shift)
    subsets = _all_subsets(fam.size)
    assert _counts(_pair_masks(image), subsets) == _counts(_pair_masks(fam), subsets)
    before, after = verify_theorem_321(fam), verify_theorem_321(image)
    assert after.checks == before.checks
    assert after.conclusion_holds == before.conclusion_holds


def _int_data_oracle(family):
    """`PolygonFamily._int_data` in Fraction arithmetic: the least common
    denominator of every vertex coordinate, and each vertex times it."""
    verts = [vertices(poly) for poly in family.members]
    scale = 1
    for x, y in itertools.chain.from_iterable(verts):
        scale = math.lcm(scale, x.denominator, y.denominator)
    return scale, tuple(
        tuple((int(x * scale), int(y * scale)) for x, y in poly) for poly in verts
    )


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10 ** 6),
    shear=st.integers(-3, 3),
    turns=st.integers(0, 3),
    shift=st.tuples(
        st.fractions(-20, 20, max_denominator=12), st.fractions(-20, 20, max_denominator=12)
    ),
    cut=st.integers(0, 6),
)
def test_int_data_matches_fraction_rescaling(seed, shear, turns, shift, cut):
    fam = random_stabbed_family(6, seed, jitter=0.4)
    image = _affine_image(fam, shear, turns, shift)
    # original members before the cut and shifted ones after it
    mixed = PolygonFamily(fam.members[:cut] + image.members[cut:])
    for family in (image, mixed):
        assert family._int_data == _int_data_oracle(family)


# SHA-256 of every check tuple, the whole family's component count and
# hypotheses_hold of `verify_theorem_321` on the stabbed families below.
# Sweep digests pin only the tallies, so one changed subfamily count can
# leave them as they are; this pins each count.
THEOREM_321_CHECKS_SHA256 = "66751eda9c53a62b4cc507417f269d34e8939b6186e2919c324db7c4df0f2653"


def test_theorem_321_checks_are_pinned():
    digest = hashlib.sha256()
    for m in (6, 7, 8):
        for seed in range(4):
            for jitter in (0.05, 0.4, 1.2):
                verdict = verify_theorem_321(random_stabbed_family(m, seed, jitter=jitter))
                digest.update(repr(
                    (verdict.checks, verdict.component_count, verdict.hypotheses_hold)
                ).encode())
                digest.update(b";")
    assert digest.hexdigest() == THEOREM_321_CHECKS_SHA256


def test_theorem_321_requires_six_members():
    fam = PolygonFamily(tuple(square(3 * i, 0) for i in range(5)))
    with pytest.raises(ContractViolation):
        verify_theorem_321(fam)


def test_thm321_plan_holds_every_pair_list_of_an_m11_verify():
    # a second verify of the same size builds no new plan, and the plan
    # holds each checked subfamily's pairs, then the whole family's
    fam = random_stabbed_family(11, 0, jitter=0.3)
    verify_theorem_321(fam)
    misses = transversal_plane._thm321_checks.cache_info().misses
    verify_theorem_321(fam)
    assert transversal_plane._thm321_checks.cache_info().misses == misses
    rows, pair_lists = transversal_plane._thm321_checks(11)
    subsets = [subset for _, subset, _ in rows] + [tuple(range(11))]
    assert len(pair_lists) == len(subsets) == 793
    assert pair_lists == tuple(tuple(itertools.combinations(s, 2)) for s in subsets)


# --- generators ------------------------------------------------------------


def test_random_polygon_family_single_member_always_succeeds():
    fam = random_polygon_family(1, seed=0)
    assert fam.size == 1


def test_random_polygon_family_pairwise_disjoint():
    fam = random_polygon_family(3, disjointness="pairwise_disjoint", seed=4)
    assert disjointness_class(fam) == "pairwise_disjoint"


def test_random_polygon_family_deterministic():
    a = random_polygon_family(3, seed=12)
    b = random_polygon_family(3, seed=12)
    assert a.members == b.members


def test_random_polygon_family_impossible_request():
    with pytest.raises(GenerationFailure):
        random_polygon_family(
            40,
            box=(-1.0, 1.0, -1.0, 1.0),
            size_range=(0.9, 1.0),
            disjointness="pairwise_disjoint",
            seed=0,
            max_attempts=300,
        )


def test_random_disjoint_pair_is_disjoint():
    for seed in range(10):
        a, b = random_disjoint_pair(seed)
        assert polygons_disjoint(a, b)


def test_random_stabbed_family_is_semipairwise():
    fam = random_stabbed_family(6, seed=2, jitter=0.3)
    assert disjointness_class(fam) in ("pairwise_disjoint", "semipairwise_disjoint")
    assert fam.size == 6


def test_vertex_counts_in_range():
    rng = random.Random("vertex-count")
    for _ in range(30):
        poly = random_convex_polygon(rng, (0, 0), 1.0, rng.randint(3, 16))
        assert 3 <= len(poly.points) <= 16


def test_generated_polygons_pass_the_checking_constructor():
    # generated hulls pass the lattice constructor's check; parsing their
    # rational vertices must give the same polygon
    def check(poly):
        checked = ConvexPolygon(vertices(poly))
        assert checked == poly
        assert repr(checked) == repr(poly)

    for seed in range(200):
        rng = random.Random(f"checked-polygons:{seed}")
        for n in range(3, 17):
            check(random_convex_polygon(rng, (rng.uniform(-3, 3), rng.uniform(-3, 3)),
                                        rng.uniform(0.5, 2.0), n))
        for poly in random_disjoint_pair(seed):
            check(poly)
        for poly in random_stabbed_family(6, seed, jitter=0.05 + seed % 12 * 0.1).members:
            check(poly)


# SHA-256 of the vertex tuples `_generator_draws` yields.  The sweep
# goldens pin only counts; this pins the polygons themselves, so a change
# to any generator's draws fails here before it moves a sweep's instances.
GENERATOR_DRAWS_SHA256 = "611c545f0905386ebb2b5a844f9f1b44ca2c1b7faffe9fc75355918350e82847"


def _generator_draws():
    for m in (6, 7, 8):
        for seed in range(4):
            for jitter in (0.05, 0.4, 1.2):
                yield random_stabbed_family(m, seed, jitter=jitter).members
    for seed in range(20):
        yield random_disjoint_pair(seed)
    rng = random.Random("pinned-convex-polygons")
    for n in range(3, 17):
        yield (random_convex_polygon(rng, (rng.uniform(-3, 3), rng.uniform(-3, 3)),
                                     rng.uniform(0.5, 2.0), n),)
    for disjointness in (None, "pairwise_disjoint", "semipairwise_disjoint"):
        for seed in range(4):
            yield random_polygon_family(4, disjointness=disjointness, seed=seed).members


def test_generator_draws_are_pinned():
    digest = hashlib.sha256()
    for polys in _generator_draws():
        for poly in polys:
            digest.update(repr(vertices(poly)).encode())
        digest.update(b";")
    assert digest.hexdigest() == GENERATOR_DRAWS_SHA256


def _reference_random_convex_polygon(rng, center, radius, n_points):
    """`random_convex_polygon` with each angle drawn by rng.uniform."""
    cx, cy = center
    for _ in range(64):
        pts = []
        for _ in range(max(n_points, 3)):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rr = radius * (0.72 + 0.28 * rng.random())
            x = cx + rr * math.cos(ang)
            y = cy + rr * math.sin(ang)
            pts.append((round(x * 10 ** 4), round(y * 10 ** 4)))
        hull = _convex_hull(pts)
        if len(hull) >= 3:
            return ConvexPolygon._lattice(tuple(hull), 10 ** 4)
    raise GenerationFailure("could not build a non-degenerate polygon")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(-10 ** 6, 10 ** 6),
    center=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    radius=st.floats(1e-4, 5),
)
@example(seed=0, center=(0.0, 0.0), radius=1e-4)  # collinear draws are redrawn
@example(seed=0, center=(0.0, 0.0), radius=5e-5)  # every draw collapses: both raise
def test_random_convex_polygon_matches_the_uniform_reference(seed, center, radius):
    for n_points in range(3, 17):
        rng = random.Random(f"uniform-reference:{seed}:{n_points}")
        ref = random.Random(f"uniform-reference:{seed}:{n_points}")
        try:
            expected = _reference_random_convex_polygon(ref, center, radius, n_points)
        except GenerationFailure:
            with pytest.raises(GenerationFailure):
                random_convex_polygon(rng, center, radius, n_points)
        else:
            assert random_convex_polygon(rng, center, radius, n_points) == expected
        # both consumed the same draws
        assert rng.getstate() == ref.getstate()


def _reference_random_stabbed_family(m, seed, jitter):
    """`random_stabbed_family` with each draw by rng.uniform and rng.randint."""
    rng = random.Random(f"stabbed-family:{m}:{seed}:{jitter}:3.0:0.9")
    phi = rng.uniform(0.0, math.pi)
    ux, uy = math.cos(phi), math.sin(phi)
    px, py = -uy, ux
    members, scaled = [], []
    for k in range(m):
        for _ in range(60):
            along = (k - (m - 1) / 2.0) * 3.0 + rng.uniform(-0.25, 0.25) * 3.0
            off = rng.uniform(-jitter, jitter)
            center = (along * ux + off * px, along * uy + off * py)
            radius = 0.9 * rng.uniform(0.55, 1.0)
            poly = random_convex_polygon(rng, center, radius, rng.randint(4, 10))
            verts = _at(poly, 10 ** 4)
            if _placement_ok(verts, scaled):
                members.append(poly)
                scaled.append(verts)
                break
        else:
            raise GenerationFailure(f"could not place member {k + 1} of a stabbed family")
    return PolygonFamily(tuple(members))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 8),
    seed=st.integers(-10 ** 6, 10 ** 6),
    jitter=st.floats(0.0, 3.0),
)
@example(m=8, seed=0, jitter=0.05)
@example(m=6, seed=7, jitter=1.2)
def test_random_stabbed_family_matches_the_uniform_reference(m, seed, jitter):
    assert random_stabbed_family(m, seed, jitter) == \
        _reference_random_stabbed_family(m, seed, jitter)


def test_random_disjoint_pair_gives_up_when_no_draw_is_disjoint(monkeypatch):
    monkeypatch.setattr(polygon_draws, "polygons_disjoint", lambda a, b: False)
    with pytest.raises(GenerationFailure, match="could not place a disjoint pair"):
        random_disjoint_pair(1)


def test_random_stabbed_family_gives_up_when_no_placement_is_ok(monkeypatch):
    monkeypatch.setattr(polygon_draws, "_placement_ok", lambda candidate, existing: False)
    with pytest.raises(GenerationFailure, match="could not place member 1 "):
        random_stabbed_family(6, 1, 0.3)


def test_placement_ok_refuses_a_candidate_over_an_overlapping_pair():
    a, b, c, far = ([(x0, 0), (x1, 0), (x1, 2), (x0, 2)]
                    for x0, x1 in ((0, 4), (2, 6), (3, 5), (10, 12)))
    assert _placement_ok(c, [a, far]) and _placement_ok(c, [a]) and _placement_ok(c, [b])
    assert not _placement_ok(c, [a, b])
    assert not _placement_ok(c, [far, a, b])


# --- sweeps ----------------------------------------------------------------


def test_sweep_transversal_lemmas_have_no_violations():
    for tag in ("lemma-311", "lemma-312", "lemma-313"):
        rep = sweep_transversal(tag, 20, seed=6)
        assert rep.conclusion_violated == 0
        assert rep.hypotheses_satisfied == rep.trials


@pytest.mark.parametrize("tag", sorted(TRANSVERSALS))
def test_sweep_transversal_matches_individual_verdicts(tag):
    # each trial's family redrawn through the row's draw with the sweep's rng
    arity, _, draw = TRANSVERSALS[tag]
    m = None if arity else 6
    verdicts = []
    for t in range(20):
        ts = 6 * 1_000_003 + t
        family = draw(random.Random(f"transversal-sweep:{tag}:{ts}"), ts, m)
        verdicts.append(verify_transversal(tag, family))
    report = sweep_transversal(tag, 20, seed=6).to_dict()
    assert report["counts"] == sweep_counts(verdicts)
    assert list(report) == ["theorem", "trials", "seed", "params", "counts"]


def test_sweep_transversal_thm321_counts():
    rep = sweep_transversal("thm-321", 8, seed=6, m=6)
    assert rep.trials == 8
    assert rep.hypotheses_satisfied == rep.conclusion_held + rep.conclusion_violated
    assert rep.conclusion_violated == 0


def test_sweep_transversal_m_defaults_to_six_and_lemmas_take_none():
    default = sweep_transversal("thm-321", 3, seed=6)
    assert default.to_dict() == sweep_transversal("thm-321", 3, seed=6, m=6).to_dict()
    assert default.to_dict()["params"] == {"m": 6}
    for tag in ("lemma-311", "lemma-312", "lemma-313"):
        with pytest.raises(ContractViolation,
                           match=f"^{tag} has a fixed family size; m does not apply$"):
            sweep_transversal(tag, 1, m=3)


def test_sweep_transversal_deterministic():
    import json

    a = sweep_transversal("lemma-312", 10, seed=3)
    b = sweep_transversal("lemma-312", 10, seed=3)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


# --- file format -----------------------------------------------------------


def test_parse_polygon_family():
    text = """
    {"members": [
      {"label": "P1", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
      {"label": "P2", "vertices": [["5/2", 0], ["7/2", 0], ["7/2", 1], ["5/2", 1]]},
      {"label": "P3", "vertices": [["1/3", 4], ["2/3", 4], ["1/3", "13/3"]]},
      {"label": "P4", "vertices": [[8, "0.25"], ["9.5", "0.25"], [8, 2]]}
    ]}
    """
    fam = parse_polygon_family(text)
    assert fam.size == 4
    assert vertices(fam.members[1])[0] == (Fraction(5, 2), Fraction(0))
    assert [poly.scale for poly in fam.members] == [1, 2, 3, 4]
    assert fam._int_data[0] == 12
    assert fam._int_data == _int_data_oracle(fam)


def test_parse_polygon_family_rejects_bad_input():
    with pytest.raises(ValidationError):
        parse_polygon_family("{}")
    with pytest.raises(ValidationError):
        parse_polygon_family('{"members": []}')
    with pytest.raises(ValidationError):
        parse_polygon_family('{"members": [{"label": "a", "vertices": [[0,0],[1,0]]}]}')
