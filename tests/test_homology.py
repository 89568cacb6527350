import json
import os
import subprocess
import sys

import pytest

from helly_topo import homology
from helly_topo.cli import main
from helly_topo.complex_core import Subcomplex, build_complex, face_closure, grid_complex
from helly_topo.errors import ContractViolation, InvariantViolation
from helly_topo.homology import (
    GF2,
    RATIONALS,
    CoefficientField,
    boundary_matrix,
    betti_number,
    _boundary_rank,
    is_n_acyclic,
    mv_consistency,
    reduced_betti,
)
from helly_topo.helly_engine import random_family

from conftest import known_spaces, make_family


@pytest.mark.parametrize("name", list(known_spaces()))
def test_known_space_betti(name):
    cx, expected_gf2, expected_q = known_spaces()[name]
    bv2 = reduced_betti(cx, GF2)
    bvq = reduced_betti(cx, RATIONALS)
    assert bv2.betti == expected_gf2, name
    assert bvq.betti == expected_q, name
    assert bv2.nonempty == bvq.nonempty == bool(cx.simplices)


def test_projective_plane_distinguishes_fields():
    cx = known_spaces()["projective_plane_6"][0]
    assert reduced_betti(cx, GF2).betti != reduced_betti(cx, RATIONALS).betti


def test_boundary_matrix_triangle_rank():
    cx = build_complex([[0, 1], [1, 2], [0, 2]])
    mat = boundary_matrix(cx, 1)
    assert len(mat) == 3 and len(mat[0]) == 3
    for field in (GF2, RATIONALS):
        assert _boundary_rank([(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], field) == 2


def test_boundary_matrix_above_dimension_has_no_columns():
    cx = build_complex([[0, 1], [1, 2], [0, 2]])
    mat = boundary_matrix(cx, 2)
    assert all(len(row) == 0 for row in mat)
    for field in (GF2, RATIONALS):
        assert _boundary_rank([(0, 1), (0, 2), (1, 2)], [], field) == 0


def test_boundary_matrix_augmentation():
    cx = build_complex([[0]])
    assert boundary_matrix(cx, 0) == [[1]]
    for field in (GF2, RATIONALS):
        assert _boundary_rank([(0,)], [], field) == 0


def test_boundary_matrix_squares_to_zero():
    cx = build_complex([[0, 1, 2], [1, 2, 3]])
    d1 = boundary_matrix(cx, 1)
    d2 = boundary_matrix(cx, 2)
    rows = len(d1)
    cols = len(d2[0])
    for i in range(rows):
        for j in range(cols):
            val = sum(d1[i][k] * d2[k][j] for k in range(len(d2)))
            assert val == 0


def test_is_n_acyclic_cases():
    empty = build_complex([])
    assert is_n_acyclic(empty, -1) is False
    solid = build_complex([[0, 1, 2]])
    for n in (-1, 0, 1, 2, 5):
        assert is_n_acyclic(solid, n) is True
    circle = build_complex([[0, 1], [1, 2], [0, 2]])
    assert is_n_acyclic(circle, 0) is True
    assert is_n_acyclic(circle, 1) is False
    with pytest.raises(ContractViolation):
        is_n_acyclic(circle, -2)


def test_betti_number_matches_full_vector():
    for seed in range(5):
        fam = random_family(6, 2, 20, seed=seed)
        for sub in fam.members:
            bv = reduced_betti(sub, GF2)
            for k in range(-2, 4):
                assert betti_number(sub, k, GF2) == bv.betti_at(k)


def test_mv_two_arcs_covering_circle():
    # arcs 0-1-2 and 2-3-0 of a square boundary overlap in the two vertices
    # {0, 2}: reduced Euler characteristics are -1 = 0 + 0 - 1
    ambient = build_complex([[0, 1], [1, 2], [2, 3], [0, 3]])
    a = Subcomplex(ambient, face_closure([(0, 1), (1, 2)]))
    b = Subcomplex(ambient, face_closure([(2, 3), (0, 3)]))
    report = mv_consistency(a, b, GF2)
    assert report.betti_union.betti == {0: 0, 1: 1}
    assert report.betti_intersection.betti == {0: 1}
    assert report.euler_lhs == -1
    assert report.euler_rhs == 0 + 0 - 1
    assert report.euler_identity_holds
    assert report.all_rank_inequalities_hold


def test_mv_identical_pair():
    ambient = build_complex([[0, 1, 2]])
    a = Subcomplex(ambient, face_closure([(0, 1, 2)]))
    report = mv_consistency(a, a, GF2)
    assert report.euler_identity_holds


def test_mv_disjoint_pair_uses_empty_convention():
    ambient = build_complex([[0], [1]])
    a = Subcomplex(ambient, frozenset({(0,)}))
    b = Subcomplex(ambient, frozenset({(1,)}))
    report = mv_consistency(a, b, GF2)
    # chi(A u B) = 1, chi(A) = chi(B) = 0, chi(empty) = -1
    assert report.euler_lhs == 1
    assert report.euler_rhs == 0 + 0 - (-1)
    assert report.euler_identity_holds


def test_mv_requires_shared_ambient():
    amb1 = build_complex([[0, 1]])
    amb2 = build_complex([[0, 1], [1, 2]])
    a = Subcomplex(amb1, face_closure([(0, 1)]))
    b = Subcomplex(amb2, face_closure([(1, 2)]))
    with pytest.raises(ContractViolation):
        mv_consistency(a, b)


def test_euler_poincare_on_random_subcomplexes():
    # alternating simplex-count sum equals 1 plus the reduced Euler characteristic
    for seed in range(10):
        fam = random_family(8, 2, 30, seed=seed)
        for sub in fam.members:
            counts = {}
            for s in sub.member_simplices:
                counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
            alt = sum((-1) ** k * c for k, c in counts.items())
            for field in (GF2, RATIONALS):
                bv = reduced_betti(sub, field)
                assert alt == 1 + bv.reduced_euler()


def test_fields_agree_without_torsion_witness():
    for name, (cx, gf2_expected, q_expected) in known_spaces().items():
        if name == "projective_plane_6":
            continue
        assert reduced_betti(cx, GF2).betti == reduced_betti(cx, RATIONALS).betti


def test_b0_matches_component_oracle():
    # three islands: b0 = 2; the graph-search cross-check runs inside reduced_betti
    cx = build_complex([[0, 1, 2], [3, 4], [5]])
    bv = reduced_betti(cx, GF2)
    assert bv.betti[0] == 2


def test_empty_complex_conventions():
    empty = build_complex([])
    bv = reduced_betti(empty, GF2)
    assert not bv.nonempty
    assert bv.betti_at(-1) == 1
    assert bv.reduced_euler() == -1
    assert bv.betti == {}


def test_field_tags_round_trip():
    assert CoefficientField.from_tag("gf2") is GF2
    assert CoefficientField.from_tag("q") is RATIONALS
    with pytest.raises(ContractViolation):
        CoefficientField.from_tag("gf3")


def test_b0_cross_check_raises_invariant_violation(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(homology, "_component_count", lambda cx: 5)
    with pytest.raises(InvariantViolation):
        reduced_betti(build_complex([[0, 1]]), GF2)
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({
        "ambient": [[0, 1]],
        "embedding_dim": 1,
        "members": [{"label": "A1", "simplices": [[0, 1]]}],
    }))
    assert main(["homology", "--in", str(path)]) == 1
    assert "internal error" in capsys.readouterr().err


def test_b0_cross_check_survives_optimized_mode():
    # python -O strips assert statements; the cross-check must still fire
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "from helly_topo import homology\n"
        "from helly_topo.complex_core import build_complex\n"
        "from helly_topo.errors import InvariantViolation\n"
        "homology._component_count = lambda cx: 5\n"
        "try:\n"
        "    homology.reduced_betti(build_complex([[0, 1]]))\n"
        "except InvariantViolation:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"
