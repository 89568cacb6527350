import json
import math
from fractions import Fraction

import pytest

from helly_topo.cli import main
from helly_topo.errors import ContractViolation, GenerationFailure, ValidationError
from helly_topo.transversal_plane import (
    ConvexPolygon,
    PolygonFamily,
    components,
    disjointness_class,
    parse_polygon_family,
    polygons_disjoint,
    random_convex_polygon,
    random_disjoint_pair,
    random_polygon_family,
    random_stabbed_family,
    sample_oracle,
    support_interval,
    sweep_transversal,
    transversal_profile,
    verify_lemma_311_plane,
    verify_lemma_312_plane,
    verify_lemma_313,
    verify_theorem_321,
)

from conftest import square


UNIT_SQUARE = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))


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


def test_polygon_accepts_rational_strings():
    poly = ConvexPolygon((("1/2", 0), ("3/2", "0.5"), ("1/2", 1)))
    assert poly.vertices[0] == (Fraction(1, 2), Fraction(0))
    assert poly.vertices[1] == (Fraction(3, 2), Fraction(1, 2))


def test_support_interval_unit_square():
    lo, hi = support_interval(UNIT_SQUARE, 0.0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = support_interval(UNIT_SQUARE, math.pi)
    assert lo == pytest.approx(-1.0) and hi == pytest.approx(0.0, abs=1e-12)
    lo, hi = support_interval(UNIT_SQUARE, math.pi / 4)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi == pytest.approx(math.sqrt(2))


# --- profile structure -----------------------------------------------------


def test_single_square_profile_full_circle():
    summary = components(transversal_profile(PolygonFamily((UNIT_SQUARE,))))
    assert summary.full_circle and summary.component_count == 1
    assert summary.betti() == {"nonempty": True, "b0": 0, "b1": 1}
    assert summary.feasible_arcs == ((0.0, math.pi),)


def test_duplicate_member_is_idempotent():
    copy = ConvexPolygon(UNIT_SQUARE.vertices)
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


def test_sample_oracle_single_square():
    assert sample_oracle(PolygonFamily((UNIT_SQUARE,)), 1024).full_circle


def test_sample_oracle_resolution_contract():
    with pytest.raises(ContractViolation):
        sample_oracle(PolygonFamily((UNIT_SQUARE,)), 4)


def test_exact_matches_oracle_on_random_families():
    guard = 4 * math.pi / 4096
    for seed in range(40):
        fam = random_polygon_family(1 + seed % 5, seed=seed)
        exact = components(transversal_profile(fam))
        oracle = sample_oracle(fam, 4096)
        if exact.min_arc_width is None or exact.min_arc_width >= guard:
            assert exact.component_count == oracle.component_count, seed
            assert exact.full_circle == oracle.full_circle, seed


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
    assert verify_lemma_312_plane(a, b).passed


# --- lemma verifiers -------------------------------------------------------


def test_lemma_311_unit_square():
    assert verify_lemma_311_plane(UNIT_SQUARE).passed


def test_lemma_311_random_polygons():
    import random

    rng = random.Random("lemma311-test")
    for _ in range(12):
        poly = random_convex_polygon(rng, (rng.uniform(-3, 3), rng.uniform(-3, 3)),
                                     rng.uniform(0.4, 2.0), rng.randint(3, 16))
        verdict = verify_lemma_311_plane(poly)
        assert verdict.passed
        assert sample_oracle(PolygonFamily((poly,)), 2048).full_circle


def test_lemma_311_thin_triangle():
    thin = ConvexPolygon(((0, 0), (10, 1), (0, 2)))
    assert verify_lemma_311_plane(thin).passed


def test_lemma_312_horizontal_and_vertical_pairs():
    assert verify_lemma_312_plane(square(0, 0), square(5, 0)).passed
    assert verify_lemma_312_plane(square(0, 0), square(0, 5)).passed


def test_lemma_312_rejects_overlap():
    with pytest.raises(ContractViolation):
        verify_lemma_312_plane(square(0, 0), square(0.25, 0))


def test_lemma_313_collinear_triple():
    verdict = verify_lemma_313(square(0, 0), square(5, 0), square(10, 0))
    assert verdict.passed
    assert verdict.summary.component_count >= 1


def test_lemma_313_third_overlapping_both():
    big = ConvexPolygon(((-1, -2), (6, -2), (6, 2), (-1, 2)))
    verdict = verify_lemma_313(square(0, 0), square(5, 0), big)
    assert verdict.passed


def test_lemma_313_empty_transversal_space():
    verdict = verify_lemma_313(square(0, 0), square(5, 0), square(2.5, 50))
    assert verdict.passed
    assert verdict.summary.component_count == 0


def test_lemma_313_requires_disjoint_pair():
    with pytest.raises(ContractViolation):
        verify_lemma_313(square(0, 0), square(0.25, 0), square(5, 0))


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


def test_theorem_321_requires_six_members():
    fam = PolygonFamily(tuple(square(3 * i, 0) for i in range(5)))
    with pytest.raises(ContractViolation):
        verify_theorem_321(fam)


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
    assert [p.vertices for p in a.members] == [p.vertices for p in b.members]


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
    import random

    rng = random.Random("vertex-count")
    for _ in range(30):
        poly = random_convex_polygon(rng, (0, 0), 1.0, rng.randint(3, 16))
        assert 3 <= len(poly.vertices) <= 16


# --- sweeps ----------------------------------------------------------------


def test_sweep_transversal_lemmas_have_no_violations():
    for tag in ("lemma-311", "lemma-312", "lemma-313"):
        rep = sweep_transversal(tag, 20, seed=6)
        assert rep.conclusion_violated == 0
        assert rep.hypotheses_satisfied == rep.total


def test_sweep_transversal_thm321_counts():
    rep = sweep_transversal("thm-321", 8, seed=6, m=6)
    assert rep.total == 8
    assert rep.hypotheses_satisfied == rep.conclusion_held + rep.conclusion_violated
    assert rep.conclusion_violated == 0


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
      {"label": "P2", "vertices": [["5/2", 0], ["7/2", 0], ["7/2", 1], ["5/2", 1]]}
    ]}
    """
    fam = parse_polygon_family(text)
    assert fam.size == 2
    assert fam.members[1].vertices[0] == (Fraction(5, 2), Fraction(0))


def test_parse_polygon_family_rejects_bad_input():
    with pytest.raises(ValidationError):
        parse_polygon_family("{}")
    with pytest.raises(ValidationError):
        parse_polygon_family('{"members": []}')
    with pytest.raises(ValidationError):
        parse_polygon_family('{"members": [{"label": "a", "vertices": [[0,0],[1,0]]}]}')
