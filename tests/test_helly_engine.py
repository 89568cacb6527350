import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from helly_topo.complex_core import (
    Subcomplex,
    as_simplex,
    build_complex,
    face_closure,
    grid_complex,
    intersect_members,
    union_members,
)
from helly_topo.errors import ContractViolation
from helly_topo.helly_engine import (
    THEOREMS,
    random_family,
    run_verifier,
    sweep,
)
from helly_topo.homology import GF2, RATIONALS, betti_number, reduced_betti

from conftest import cells_subcomplex, make_family, rect_subcomplex


# --- prop-a ----------------------------------------------------------------


def test_prop_a_two_connected_sharing_vertex():
    # union of two connected sets with a common point is connected
    ambient = build_complex([[0, 1], [1, 2]])
    a = Subcomplex(ambient, face_closure([(0, 1)]))
    b = Subcomplex(ambient, face_closure([(1, 2)]))
    v = run_verifier("prop-a", make_family(ambient, [a, b]), lam=0)
    assert v.hypotheses_hold and v.conclusion_holds


def test_prop_a_disjoint_pair_fails_at_j2():
    ambient = build_complex([[0, 1], [2, 3]])
    a = Subcomplex(ambient, face_closure([(0, 1)]))
    b = Subcomplex(ambient, face_closure([(2, 3)]))
    v = run_verifier("prop-a", make_family(ambient, [a, b]), lam=0)
    failed = v.ledger.failed_entries()
    assert not v.hypotheses_hold
    assert [(e.j, e.degree) for e in failed] == [(2, -1)]


def test_prop_a_three_strips():
    # overlapping column strips: acyclic members, connected pairwise
    # intersections, nonempty triple; the union has no 1-cycle
    n = 4
    ambient = grid_complex(n)
    members = [
        rect_subcomplex(ambient, n, 0, 2, 0, 4),
        rect_subcomplex(ambient, n, 1, 3, 0, 4),
        rect_subcomplex(ambient, n, 2, 4, 0, 4),
    ]
    v = run_verifier("prop-a", make_family(ambient, members), lam=0)
    assert v.hypotheses_hold
    assert v.conclusion_holds
    assert v.witness["degree"] == 1 and v.witness["observed"] == 0


def test_prop_a_contract_checks():
    ambient = build_complex([[0]])
    fam = make_family(ambient, [Subcomplex(ambient, frozenset({(0,)}))])
    with pytest.raises(ContractViolation):
        run_verifier("prop-a", fam, lam=0)  # m < 2
    fam2 = random_family(4, 2, 5, seed=0)
    with pytest.raises(ContractViolation):
        run_verifier("prop-a", fam2, lam=-1)


# --- thm-b -----------------------------------------------------------------


def test_thm_b_connected_union_gives_common_point():
    ambient = build_complex([[0, 1], [1, 2]])
    a = Subcomplex(ambient, face_closure([(0, 1)]))
    b = Subcomplex(ambient, face_closure([(1, 2)]))
    v = run_verifier("thm-b", make_family(ambient, [a, b]), lam=0)
    assert v.hypotheses_hold and v.conclusion_holds


def test_thm_b_disconnected_union_fails_hypothesis_a():
    ambient = build_complex([[0, 1], [2, 3]])
    a = Subcomplex(ambient, face_closure([(0, 1)]))
    b = Subcomplex(ambient, face_closure([(2, 3)]))
    v = run_verifier("thm-b", make_family(ambient, [a, b]), lam=0)
    assert not v.hypotheses_hold
    failed = v.ledger.failed_entries()
    assert len(failed) == 1 and failed[0].kind == "union" and failed[0].degree == 0


def test_thm_b_lambda_one_strips():
    n = 4
    ambient = grid_complex(n)
    members = [
        rect_subcomplex(ambient, n, 0, 2, 0, 4),
        rect_subcomplex(ambient, n, 1, 3, 0, 4),
        rect_subcomplex(ambient, n, 2, 4, 0, 4),
    ]
    v = run_verifier("thm-b", make_family(ambient, members), lam=1)
    assert v.hypotheses_hold
    # conclusion: the triple intersection is connected (degree 0 vanishing)
    assert v.witness["degree"] == 0 and v.conclusion_holds


# --- Topological Helly -----------------------------------------------------


def test_helly_four_disks():
    n = 4
    ambient = grid_complex(n)
    members = [
        rect_subcomplex(ambient, n, 0, 3, 0, 3),
        rect_subcomplex(ambient, n, 1, 4, 1, 4),
        rect_subcomplex(ambient, n, 0, 3, 1, 4),
        rect_subcomplex(ambient, n, 1, 4, 0, 3),
    ]
    fam = make_family(ambient, members)
    v = run_verifier("helly", fam, d=2)
    assert v.hypotheses_hold and v.conclusion_holds
    inter = intersect_members(fam, range(4))
    expected = rect_subcomplex(ambient, n, 1, 3, 1, 3)
    assert inter.member_simplices == expected.member_simplices


def test_helly_empty_triple_fails_only_at_degree_minus_one():
    # row strip, column strip, and a staircase that meets both but avoids
    # their corner: all pairwise checks pass, the triple is empty
    n = 4
    ambient = grid_complex(n)
    a = rect_subcomplex(ambient, n, 0, 4, 0, 1)
    b = rect_subcomplex(ambient, n, 0, 1, 0, 4)
    c = cells_subcomplex(ambient, n, [(2, 0), (2, 1), (2, 2), (1, 2), (0, 2)])
    v = run_verifier("helly", make_family(ambient, [a, b, c]), d=2)
    assert not v.hypotheses_hold
    failed = v.ledger.failed_entries()
    assert [(e.j, e.degree) for e in failed] == [(3, -1)]
    assert failed[0].indices == (0, 1, 2)


def test_helly_single_acyclic_member():
    # the smallest family the theorem speaks about at d = 2: three members
    ambient = grid_complex(3)
    member = rect_subcomplex(ambient, 3, 0, 2, 0, 2)
    v = run_verifier("helly", make_family(ambient, [member] * 3), d=2)
    assert v.hypotheses_hold and v.conclusion_holds


@pytest.mark.parametrize("d", [2, 3, 4])
def test_helly_needs_d_plus_1_members(d):
    # below d+1 members no hypothesis requires a nonempty intersection, so
    # two disjoint members would read as a violation: out of scope instead
    ambient = grid_complex(3)
    a = rect_subcomplex(ambient, 3, 0, 1, 0, 1)
    b = rect_subcomplex(ambient, 3, 2, 3, 2, 3)
    for m in range(2, d + 1):
        fam = make_family(ambient, [a, b] * (m // 2) + [a] * (m % 2))
        with pytest.raises(ContractViolation, match=f"^family size must be >= {d + 1}$"):
            run_verifier("helly", fam, d=d)
    fam = make_family(ambient, [a, b] + [a] * (d - 1))
    v = run_verifier("helly", fam, d=d)
    assert not v.hypotheses_hold and not v.conclusion_holds


def test_helly_contract_checks():
    fam = random_family(4, 2, 5, seed=1)
    with pytest.raises(ContractViolation):
        run_verifier("helly", fam, d=0)
    with pytest.raises(ContractViolation):
        run_verifier("helly", fam, d=1)  # declared embedding dim 2 exceeds d


# --- Sigma and Breen -------------------------------------------------------


def test_sigma_two_members_connected_union():
    ambient = build_complex([[0, 1], [1, 2]])
    a = Subcomplex(ambient, face_closure([(0, 1)]))
    b = Subcomplex(ambient, face_closure([(1, 2)]))
    v = run_verifier("sigma", make_family(ambient, [a, b]))
    assert v.hypotheses_hold and v.conclusion_holds


def test_sigma_three_rects():
    n = 4
    ambient = grid_complex(n)
    members = [
        rect_subcomplex(ambient, n, 0, 3, 0, 4),
        rect_subcomplex(ambient, n, 1, 4, 0, 4),
        rect_subcomplex(ambient, n, 1, 3, 0, 4),
    ]
    v = run_verifier("sigma", make_family(ambient, members))
    assert v.hypotheses_hold and v.conclusion_holds


def test_sigma_disjoint_members_fail():
    ambient = build_complex([[0, 1], [2, 3]])
    a = Subcomplex(ambient, face_closure([(0, 1)]))
    b = Subcomplex(ambient, face_closure([(2, 3)]))
    v = run_verifier("sigma", make_family(ambient, [a, b]))
    assert not v.hypotheses_hold


def test_breen_five_nested_rects():
    n = 6
    ambient = grid_complex(n)
    members = [rect_subcomplex(ambient, n, 0, 2 + i, 0, 6) for i in range(5)]
    v = run_verifier("breen", make_family(ambient, members), d=2)
    assert v.hypotheses_hold and v.conclusion_holds


def test_breen_fails_only_at_disconnected_pair_union():
    n = 6
    ambient = grid_complex(n)
    a = rect_subcomplex(ambient, n, 0, 1, 0, 1)
    b = rect_subcomplex(ambient, n, 5, 6, 5, 6)
    c = rect_subcomplex(ambient, n, 0, 6, 0, 6)
    v = run_verifier("breen", make_family(ambient, [a, b, c]), d=2)
    assert not v.hypotheses_hold
    failed = v.ledger.failed_entries()
    assert [(e.j, e.degree, e.indices) for e in failed] == [(2, 0, (0, 1))]


def test_breen_coincides_with_sigma_when_m_small():
    for seed in range(30):
        m = 2 + seed % 2
        fam = random_family(8, m, 30, seed=seed)
        vb = run_verifier("breen", fam, d=2)
        vs = run_verifier("sigma", fam)
        assert vb.ledger.entries == vs.ledger.entries
        assert vb.hypotheses_hold == vs.hypotheses_hold
        assert vb.conclusion_holds == vs.conclusion_holds


# --- degenerate degrees and monotone sanity --------------------------------


def test_vacuous_degrees_recorded():
    fam = random_family(6, 5, 10, seed=3)
    v = run_verifier("prop-a", fam, lam=0)
    # j=1 entries sit at degree m-2 = 3 > ambient dimension: vacuous
    vac = [e for e in v.ledger.entries if e.status == "vacuous"]
    assert vac and all(e.observed is None for e in vac)
    assert all(e.degree > 2 or e.degree < -1 for e in vac)


def test_empty_intersections_fail_exactly_at_degree_minus_one():
    ambient = grid_complex(4)
    members = [
        rect_subcomplex(ambient, 4, 0, 1, 0, 1),
        rect_subcomplex(ambient, 4, 2, 3, 2, 3),
        rect_subcomplex(ambient, 4, 3, 4, 0, 1),
    ]
    v = run_verifier("helly", make_family(ambient, members), d=2)
    failed = v.ledger.failed_entries()
    assert failed
    assert all(e.degree == -1 for e in failed)
    # pairwise empty intersections pass at degree 0 (the empty set is
    # vacuously connected) and fail exactly when nonemptiness is required
    deg0 = [e for e in v.ledger.entries if e.degree == 0]
    assert all(e.status == "pass" for e in deg0)


def test_adding_ambient_member_keeps_conclusion():
    n = 4
    ambient = grid_complex(n)
    members = [
        rect_subcomplex(ambient, n, 0, 3, 0, 3),
        rect_subcomplex(ambient, n, 1, 4, 1, 4),
        rect_subcomplex(ambient, n, 0, 3, 1, 4),
    ]
    fam = make_family(ambient, members)
    v = run_verifier("helly", fam, d=2)
    assert v.hypotheses_hold and v.conclusion_holds
    whole = Subcomplex(ambient, ambient.simplices)
    fam2 = make_family(ambient, members + [whole])
    v2 = run_verifier("helly", fam2, d=2)
    assert intersect_members(fam2, range(4)).member_simplices == \
        intersect_members(fam, range(3)).member_simplices
    if v2.hypotheses_hold:
        assert v2.conclusion_holds


# --- generator -------------------------------------------------------------


def test_random_family_minimal_blob():
    fam = random_family(2, 1, 0, seed=0)
    assert fam.size == 1
    assert len(fam.members[0].member_simplices) == 7  # one closed triangle


def test_random_family_deterministic():
    a = random_family(8, 3, 20, seed=42)
    b = random_family(8, 3, 20, seed=42)
    assert [m.member_simplices for m in a.members] == [m.member_simplices for m in b.members]
    c = random_family(8, 3, 20, seed=43)
    assert [m.member_simplices for m in a.members] != [m.member_simplices for m in c.members]


def test_random_family_regression_pin():
    # frozen after the first implementation run; guards the generator
    fam = random_family(12, 4, 40, seed=7)
    betti = [reduced_betti(s, GF2).betti for s in fam.members]
    sizes = [len(s.member_simplices) for s in fam.members]
    assert sizes == [148, 154, 148, 149]
    assert betti == [
        {0: 0, 1: 1, 2: 0},
        {0: 0, 1: 1, 2: 0},
        {0: 0, 1: 1, 2: 0},
        {0: 0, 1: 0, 2: 0},
    ]


def test_random_family_contract_checks():
    with pytest.raises(ContractViolation):
        random_family(1, 2, 5, seed=0)
    with pytest.raises(ContractViolation):
        random_family(4, 0, 5, seed=0)


# --- sweep -----------------------------------------------------------------


def test_sweep_counts_are_consistent():
    rep = sweep("sigma", 40, grid_n=8, m=3, growth_steps=30, seed=5)
    assert rep.total == 40
    assert rep.hypotheses_satisfied == rep.conclusion_held + rep.conclusion_violated
    assert rep.conclusion_violated == 0
    assert rep.hypotheses_failed_conclusion_failed <= rep.total - rep.hypotheses_satisfied


def test_sweep_matches_individual_verdicts():
    rep = sweep("helly", 10, grid_n=8, m=3, growth_steps=25, seed=9, d=2)
    satisfied = 0
    for trial in range(10):
        fam = random_family(8, 3, 25, seed=9 * 1_000_003 + trial)
        if run_verifier("helly", fam, GF2, d=2).hypotheses_hold:
            satisfied += 1
    assert satisfied == rep.hypotheses_satisfied


def test_sweep_reports_are_byte_identical():
    a = sweep("thm-b", 25, grid_n=8, m=2, growth_steps=30, seed=11, lam=1)
    b = sweep("thm-b", 25, grid_n=8, m=2, growth_steps=30, seed=11, lam=1)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_sweep_rejects_unknown_theorem():
    with pytest.raises(ContractViolation):
        sweep("nope", 1)


def test_sweep_histogram_keys():
    rep = sweep("sigma", 30, grid_n=8, m=3, growth_steps=20, seed=2)
    for j, degree, count in rep.failure_histogram:
        assert 1 <= j <= 3 and count >= 1


def _relabelled_family(fam, label):
    """The family's image under an injective map of vertex ids."""
    def image(simplices):
        return face_closure(as_simplex(label[v] for v in s) for s in simplices)

    ambient = build_complex(image(fam.ambient.simplices), fam.ambient.declared_embedding_dim)
    return make_family(ambient, [Subcomplex(ambient, image(m.member_simplices))
                                 for m in fam.members])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10 ** 6),
    labels=st.lists(st.integers(0, 10 ** 6), min_size=36, max_size=36, unique=True),
)
def test_vertex_relabelling_keeps_betti_vectors_and_ledgers(seed, labels):
    fam = random_family(5, 3, 12, seed)  # the 5x5 grid has vertices 0..35
    image = _relabelled_family(fam, dict(enumerate(labels)))
    for j in (1, 2, 3):
        for combo in itertools.combinations(range(3), j):
            for combine in (intersect_members, union_members):
                a, b = combine(fam, combo), combine(image, combo)
                for field in (GF2, RATIONALS):
                    assert reduced_betti(a, field) == reduced_betti(b, field)
                    for k in range(-1, 3):
                        assert betti_number(a, k, field) == betti_number(b, k, field)
                # a planar grid subcomplex has no torsion: the two fields agree
                assert reduced_betti(a, GF2).betti == reduced_betti(a, RATIONALS).betti
                for k in range(-1, 3):
                    assert betti_number(a, k, GF2) == betti_number(a, k, RATIONALS)
    for field in (GF2, RATIONALS):
        for tag in THEOREMS:
            assert run_verifier(tag, fam, field, d=2, lam=1).to_dict() == \
                run_verifier(tag, image, field, d=2, lam=1).to_dict()
