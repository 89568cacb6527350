import functools
import gc
import itertools
import json
import operator
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helly_topo import helly_engine, homology
from helly_topo.cli import main
from helly_topo.complex_core import (
    Subcomplex,
    _select,
    build_complex,
    face_closure,
    grid_complex,
    intersect_members,
    parse_family,
    union_members,
)
from helly_topo.errors import ContractViolation, InvariantViolation
from helly_topo.homology import (
    GF2,
    RATIONALS,
    CoefficientField,
    betti_number,
    _boundary_rank,
    _components,
    _indexed,
    _rank_q_columns,
    _top_boundary_injective,
    reduced_betti,
)
from helly_topo.helly_engine import random_family, run_verifier, sweep

from conftest import known_spaces, make_family, mv_consistency, reduced_euler


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


# --- the rational rank oracle ------------------------------------------------


def _signed_boundary(index, mask: int, k: int) -> list:
    """Dense signed boundary matrix of the mask's k-simplices, read from the index.

    Rows are the mask's (k-1)-simplices and columns its k-simplices, both in
    index order.  A k-simplex's facets in increasing bit order drop vertex
    k, k-1, ..., 0, so their signs alternate starting from (-1)^k.
    """
    bits = range(len(index.order))
    rows = [b for b in _select(bits, mask) if len(index.order[b]) == k]
    cols = [b for b in _select(bits, mask) if len(index.order[b]) == k + 1]
    row = {b: r for r, b in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, i in enumerate(cols):
        sign = (-1) ** k
        for f in _select(bits, index.facets[i]):
            mat[row[f]][j] = sign
            sign = -sign
    return mat


def _rank_bareiss(mat) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) Gaussian elimination."""
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, ncols):
                row_i[j] = (row_i[j] * pv - f * row_r[j]) // prev
            row_i[c] = 0
        prev = pv
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def _matrices(cx, k):
    """The signed boundary matrix of cx's k-simplices and its rank over each
    field; the rational rank is checked against Bareiss elimination."""
    ambient, mask, _ = _indexed(cx)
    index = ambient._index
    mat = _signed_boundary(index, mask, k)
    ranks = [_boundary_rank(index, mask, k, field) for field in (GF2, RATIONALS)]
    assert ranks[1] == _rank_bareiss(mat)
    return mat, ranks


def test_boundary_matrix_triangle_rank():
    # rows (0), (1), (2) and (0, 1), (0, 2), (1, 2): d(ab) = b - a, d(abc) = bc - ac + ab
    solid = build_complex([[0, 1, 2]])
    assert _matrices(solid, 1) == ([[-1, -1, 0], [1, 0, -1], [0, 1, 1]], [2, 2])
    assert _matrices(solid, 2) == ([[1], [-1], [1]], [1, 1])


def test_boundary_matrix_above_dimension_has_no_columns():
    circle = build_complex([[0, 1], [0, 2], [1, 2]])
    assert _matrices(circle, 2) == ([[], [], []], [0, 0])
    assert _matrices(circle, 3) == ([], [0, 0])


def test_boundary_matrix_augmentation():
    # a lone vertex: no boundary into degree -1 is ranked, so reduced b0 = 0
    point = build_complex([[0]])
    assert _matrices(point, 0) == ([], [0, 0])
    assert _matrices(point, 1) == ([[]], [0, 0])
    for field in (GF2, RATIONALS):
        assert reduced_betti(point, field).betti == {0: 0}


def _sparse(cx):
    """cx under an injective, order-reversing vertex relabelling with large gaps."""
    verts = sorted(v for (v,) in (s for s in cx.simplices if len(s) == 1))
    label = {v: 3 + 41 * (len(verts) - i) for i, v in enumerate(verts)}
    return build_complex([[label[v] for v in s] for s in cx.simplices],
                         cx.declared_embedding_dim)


def test_boundary_matrix_squares_to_zero():
    spaces = [cx for cx, _, _ in known_spaces().values()]
    spaces += [_sparse(cx) for cx in spaces]
    spaces += [build_complex([[0, 1, 2], [1, 2, 3]]), grid_complex(4)]
    composed = 0
    for cx in spaces:
        ambient, mask, _ = _indexed(cx)
        index = ambient._index
        for k in range(1, cx.dimension):
            lower = _signed_boundary(index, mask, k)
            upper = _signed_boundary(index, mask, k + 1)
            for row in lower:
                for j in range(len(upper[0])):
                    assert sum(row[i] * upper[i][j] for i in range(len(upper))) == 0
            # over GF(2) the facets of a (k+1)-simplex's facets cancel in pairs
            for facets in _select(index.facets, index.dim_masks[k + 1]):
                assert functools.reduce(operator.xor, _select(index.facets, facets), 0) == 0
            composed += 1
    assert composed == 2 * 5 + 2  # five known spaces of dimension 2, twice
    assert _matrices(spaces[-2], 1)[1] == [3, 3]
    assert _matrices(spaces[-2], 2)[1] == [2, 2]


def _torsion_spaces():
    """Two complexes with torsion in H_1, with their reduced Betti numbers
    over GF(2) and the rationals: a Klein bottle, two copies of the 6-vertex
    RP^2 without the triangle (0, 1, 2) glued along its boundary
    (2-torsion), and a mod-3 Moore space, a triangle boundary with a disc
    attached along a loop that winds three times around it (3-torsion)."""
    rp2 = sorted(s for s in known_spaces()["projective_plane_6"][0].simplices if len(s) == 3)
    second = {0: 0, 1: 1, 2: 2, 3: 6, 4: 7, 5: 8}
    klein = rp2[1:] + [tuple(second[v] for v in t) for t in rp2[1:]]  # rp2[0] is (0, 1, 2)
    moore = []
    for i in range(9):
        # rim vertex i % 3 of the triangle, inner ring vertices 3..11, apex 12
        a, b = 3 + i, 3 + (i + 1) % 9
        moore += [(i % 3, (i + 1) % 3, a), ((i + 1) % 3, a, b), (a, b, 12)]
    return {
        "klein_bottle": (build_complex(klein), {0: 0, 1: 2, 2: 1}, {0: 0, 1: 1, 2: 0}),
        "moore_3": (build_complex(moore), {0: 0, 1: 0, 2: 0}, {0: 0, 1: 0, 2: 0}),
    }


@pytest.mark.parametrize("name", list(_torsion_spaces()))
def test_torsion_space_betti(name):
    cx, expected_gf2, expected_q = _torsion_spaces()[name]
    assert reduced_betti(cx, GF2).betti == expected_gf2
    assert reduced_betti(cx, RATIONALS).betti == expected_q
    _assert_betti_number_matches_oracle(cx)


_ORACLE_SPACES = {
    **{name: known_spaces()[name][0] for name in ("torus_7", "projective_plane_6")},
    **{name: cx for name, (cx, _, _) in _torsion_spaces().items()},
}


def test_q_reduction_matches_bareiss_oracle(monkeypatch):
    # every pivot that does not lead with +-1 is scaled by homology.Fraction
    leads = []
    monkeypatch.setattr(homology, "Fraction",
                        lambda v, lead: leads.append(lead) or Fraction(v, lead))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(_ORACLE_SPACES)), st.integers(0, 2 ** 32),
           st.sampled_from((0.1, 0.3, 0.5, 0.7, 1.0)))
    def check(name, seed, density):
        # the face closure of a random share of the space's simplices
        rng = random.Random(seed)
        index = _ORACLE_SPACES[name]._index
        mask = 0
        for closure in index.closures:
            if rng.random() < density:
                mask |= closure
        for k in range(len(index.dim_masks) + 1):
            assert _rank_q_columns(index, mask, k) == _rank_bareiss(
                _signed_boundary(index, mask, k)), (name, k)

    check()
    assert leads and all(lead not in (1, -1) for lead in leads)


def test_fields_agree_on_breen_unions():
    # planar complexes have no torsion, so the rational ranks of these large
    # unions must match the GF(2) ones
    for seed in range(20):
        union = union_members(random_family(12, 4, 120, seed), range(4))
        assert reduced_betti(union, RATIONALS).betti == reduced_betti(union, GF2).betti, seed


def is_n_acyclic(cx, n: int, field=GF2) -> bool:
    """True iff the complex is nonempty and b_k = 0 for 0 <= k <= n; for
    n = -1 exactly nonemptiness.  The oracle for the helly conclusion."""
    if n < -1:
        raise ContractViolation("n must be >= -1")
    if not cx.simplices:
        return False
    if n == -1:
        return True
    bv = reduced_betti(cx, field)
    return all(bv.betti_at(k) == 0 for k in range(0, n + 1))


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


def _assert_betti_number_matches_oracle(cx):
    """betti_number (rank identities where they hold) against the
    elimination-only reduced_betti, every degree and both fields."""
    seen = []
    for field in (GF2, RATIONALS):
        bv = reduced_betti(cx, field)
        for k in range(-2, 4):
            assert betti_number(cx, k, field) == bv.betti_at(k), (k, field)
            seen.append((k, bv.betti_at(k)))
    return seen


def test_betti_number_matches_oracle_on_random_families():
    seen = []
    for seed in range(60):
        fam = random_family(8, 3, 25, seed=seed)
        subs = list(fam.members)
        for j in (2, 3):
            for combo in itertools.combinations(range(3), j):
                subs.append(union_members(fam, combo))
                subs.append(intersect_members(fam, combo))
        for sub in subs:
            seen += _assert_betti_number_matches_oracle(sub)
    assert len(seen) == 60 * 11 * 2 * 6
    # holes, several components and empty intersections all occur
    assert (1, 0) in seen and any(k == 1 and b > 0 for k, b in seen)
    assert any(k == 0 and b > 0 for k, b in seen) and (-1, 1) in seen


def _subcomplexes(cx):
    """The whole complex, its 1-skeleton, all but one triangle, and the
    closed star of its smallest vertex."""
    tris = sorted(s for s in cx.simplices if len(s) == 3)
    v0 = min(cx.simplices)[0]
    return [
        Subcomplex(cx, cx.simplices),
        Subcomplex(cx, frozenset(s for s in cx.simplices if len(s) <= 2)),
        Subcomplex(cx, face_closure(tris[1:])),
        Subcomplex(cx, face_closure(t for t in tris if v0 in t)),
    ]


@pytest.mark.parametrize("name", list(known_spaces()))
def test_betti_number_matches_oracle_on_known_spaces(name):
    cx = known_spaces()[name][0]
    _assert_betti_number_matches_oracle(cx)
    if name in ("torus_7", "projective_plane_6", "annulus"):
        for sub in _subcomplexes(cx):
            _assert_betti_number_matches_oracle(sub)


def test_betti_number_matches_oracle_on_sparse_vertex_ids():
    # vertex bits are positions in the sorted vertex list, not vertex ids
    gappy = build_complex([[3, 17, 40], [17, 40, 41], [41, 90], [90, 3], [500]])
    assert gappy.simplices >= {(3,), (17,), (40,), (500,)}
    _assert_betti_number_matches_oracle(gappy)
    for sub in _subcomplexes(gappy):
        _assert_betti_number_matches_oracle(sub)
    for name, (cx, _, _) in known_spaces().items():
        sparse = _sparse(cx)
        assert [reduced_betti(sparse, f).betti for f in (GF2, RATIONALS)] == \
            [reduced_betti(cx, f).betti for f in (GF2, RATIONALS)], name
        _assert_betti_number_matches_oracle(sparse)
        if any(len(s) == 3 for s in sparse.simplices):
            for sub in _subcomplexes(sparse):
                _assert_betti_number_matches_oracle(sub)


def test_subcomplex_betti_matches_standalone_complex():
    # a subcomplex's boundary rows are its ambient's bits, a standalone
    # complex's are its own: the Betti vectors must not depend on which
    subs = []
    for name in ("torus_7", "projective_plane_6", "annulus"):
        subs += _subcomplexes(known_spaces()[name][0])
    for seed in range(10):
        fam = random_family(8, 3, 25, seed=seed)
        subs += [*fam.members, union_members(fam, range(3)), intersect_members(fam, (0, 1))]
    assert any(not sub.mask for sub in subs)
    for sub in subs:
        standalone = build_complex(sub.simplices, sub.parent.declared_embedding_dim)
        for field in (GF2, RATIONALS):
            assert reduced_betti(sub, field) == reduced_betti(standalone, field), field


def test_projective_plane_minus_a_triangle_is_a_mobius_band():
    # rp2 has a top cycle mod 2 only, so b1 eliminates d_2 over GF(2) alone
    band = _subcomplexes(known_spaces()["projective_plane_6"][0])[2]
    assert [betti_number(band, k, f) for f in (GF2, RATIONALS) for k in (0, 1, 2)] == [
        0, 1, 0, 0, 1, 0]


def test_rank_takes_the_top_shortcut_per_field(monkeypatch):
    band = _subcomplexes(known_spaces()["projective_plane_6"][0])[2]
    for field in (GF2, RATIONALS):
        _top_boundary_injective(band.parent, field)
    eliminated = []
    boundary_rank = homology._boundary_rank
    monkeypatch.setattr(homology, "_boundary_rank",
                        lambda index, mask, k, field: eliminated.append((k, field))
                        or boundary_rank(index, mask, k, field))
    assert [betti_number(band, 1, f) for f in (GF2, RATIONALS)] == [1, 1]
    assert eliminated == [(2, GF2)]


@pytest.mark.parametrize("name, injective", [
    ("solid_triangle", True),
    ("annulus", True),
    ("tetrahedron_boundary", False),
    ("torus_7", False),
    ("projective_plane_6", False),
])
def test_top_boundary_injective(name, injective):
    assert _top_boundary_injective(known_spaces()[name][0], GF2) is injective


@pytest.mark.parametrize("name, injective", [
    ("annulus", True),
    ("tetrahedron_boundary", False),
    ("torus_7", False),
    ("projective_plane_6", True),  # a 2-cycle mod 2 only
    ("klein_bottle", True),
])
def test_top_boundary_injective_over_the_rationals(name, injective):
    spaces = {**known_spaces(), **_torsion_spaces()}
    assert _top_boundary_injective(spaces[name][0], RATIONALS) is injective


def test_top_boundary_injective_on_grid():
    assert _top_boundary_injective(grid_complex(6), GF2) is True


def _counting_boundary_rank(monkeypatch) -> list:
    """Patch `homology._boundary_rank` to record (id of index, k, field)."""
    calls = []
    boundary_rank = homology._boundary_rank

    def counting(index, mask, k, field):
        calls.append((id(index), k, field))
        return boundary_rank(index, mask, k, field)

    monkeypatch.setattr(homology, "_boundary_rank", counting)
    return calls


def test_top_boundary_injective_ranks_once_per_ambient_and_field(monkeypatch):
    calls = _counting_boundary_rank(monkeypatch)
    torus = build_complex(known_spaces()["torus_7"][0].simplices)
    for _ in range(3):
        assert [_top_boundary_injective(torus, f) for f in (GF2, RATIONALS)] == [False, False]
    assert calls == [(id(torus._index), 2, GF2), (id(torus._index), 2, RATIONALS)]


def test_equal_ambients_each_decide_their_own_top_boundary(monkeypatch):
    calls = _counting_boundary_rank(monkeypatch)
    first, second = build_complex([[0, 1, 2]]), build_complex([[0, 1, 2]])
    assert first == second and first is not second
    assert _top_boundary_injective(first, GF2) and _top_boundary_injective(second, GF2)
    assert calls == [(id(first._index), 2, GF2), (id(second._index), 2, GF2)]


def test_top_boundary_memo_does_not_keep_its_ambient_alive():
    ambient = build_complex([[0, 1, 2], [1, 2, 3]])
    assert _top_boundary_injective(ambient, GF2) and _top_boundary_injective(ambient, RATIONALS)
    ref = weakref.ref(ambient)
    del ambient
    gc.collect()
    assert ref() is None


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
                assert alt == 1 + reduced_euler(bv)


def test_fields_agree_without_torsion_witness():
    for name, (cx, gf2_expected, q_expected) in known_spaces().items():
        if name == "projective_plane_6":
            continue
        assert reduced_betti(cx, GF2).betti == reduced_betti(cx, RATIONALS).betti


def test_b0_matches_component_oracle():
    # three islands: b0 = 2; the union-find cross-check runs inside reduced_betti
    cx = build_complex([[0, 1, 2], [3, 4], [5]])
    bv = reduced_betti(cx, GF2)
    assert bv.betti[0] == 2


# --- component parts --------------------------------------------------------


def _reference_parts(sub) -> set:
    """Vertex masks of the 1-skeleton's components, by graph search over the
    decoded simplices."""
    bit = sub.parent._index.bit
    neighbours = {s[0]: [] for s in sub.member_simplices if len(s) == 1}
    for s in sub.member_simplices:
        if len(s) == 2:
            neighbours[s[0]].append(s[1])
            neighbours[s[1]].append(s[0])
    parts = set()
    while neighbours:
        stack, part = [next(iter(neighbours))], 0
        while stack:
            v = stack.pop()
            if v in neighbours:
                part |= 1 << bit[(v,)]
                stack.extend(neighbours.pop(v))
        parts.add(part)
    return parts


def _assert_parts_exact(sub):
    index = sub.parent._index
    assert len(sub.parts) == _components(index, sub.mask)
    assert all(not a & b for a, b in itertools.combinations(sub.parts, 2))
    assert functools.reduce(operator.or_, sub.parts, 0) == sub.mask & index.dim_masks[0]
    assert set(sub.parts) == _reference_parts(sub)


def _assert_unions_have_exact_parts(fam):
    for j in range(1, fam.size + 1):
        for combo in itertools.combinations(range(fam.size), j):
            union = union_members(fam, combo)
            _assert_parts_exact(union)
            assert betti_number(union, 0) == len(union.parts) - 1
            inter = intersect_members(fam, combo)
            if j == 1:
                # a one-member meet or join is the member, with its parts
                member = fam.members[combo[0]]
                assert union is member and inter is member
            else:
                # intersections of two or more count components by union-find
                assert inter.parts is None


def test_generated_members_have_one_part():
    for seed in range(40):
        for member in random_family(8, 4, 25, seed=seed).members:
            assert member.parts == (member.mask & member.parent._index.dim_masks[0],)
            _assert_parts_exact(member)


def test_union_parts_are_exact_on_random_families():
    sizes = set()
    for seed in range(40):
        fam = random_family(10, 4, 15, seed=seed)
        _assert_unions_have_exact_parts(fam)
        sizes.add(len(union_members(fam, range(4)).parts))
    assert {1, 2} <= sizes  # connected and disconnected unions both occur


def _with_reference_parts(fam):
    return make_family(fam.ambient, [
        Subcomplex._from_mask(fam.ambient, sub.mask, tuple(_reference_parts(sub)))
        for sub in fam.members
    ])


def test_union_parts_merge_members_with_two_components():
    # On the path 0-1-...-9, A and B have two components each.  C (three
    # components, one the lone vertex 9) joins their parts into 0-3 and 4-7;
    # D, third in (A, B, D), joins 0-1, 2-3 and 4-5 into 0-5.
    text = json.dumps({
        "ambient": [[v, v + 1] for v in range(9)],
        "embedding_dim": 1,
        "members": [
            {"label": "A", "simplices": [[0, 1], [4, 5]]},
            {"label": "B", "simplices": [[2, 3], [6, 7]]},
            {"label": "C", "simplices": [[1, 2], [5, 6], [9]]},
            {"label": "D", "simplices": [[1, 2], [3, 4]]},
        ],
    })
    parsed = parse_family(text)
    assert all(sub.parts is None for sub in parsed.members)
    assert union_members(parsed, range(4)).parts is None
    fam = _with_reference_parts(parsed)
    assert [len(sub.parts) for sub in fam.members] == [2, 2, 3, 2]
    _assert_unions_have_exact_parts(fam)
    assert len(union_members(fam, (0, 1)).parts) == 4
    assert len(union_members(fam, (0, 1, 2)).parts) == 3  # 0-3, 4-7 and 9
    assert len(union_members(fam, (0, 1, 3)).parts) == 2  # 0-5 and 6-7


def test_union_parts_third_member_bridges_two_disjoint_ones():
    ambient = grid_complex(4)
    fam = _with_reference_parts(make_family(ambient, [
        Subcomplex(ambient, face_closure([(0, 1)])),
        Subcomplex(ambient, face_closure([(3, 4)])),
        Subcomplex(ambient, face_closure([(1, 2), (2, 3)])),
    ]))
    assert len(union_members(fam, (0, 1)).parts) == 2
    assert len(union_members(fam, (0, 1, 2)).parts) == 1
    _assert_unions_have_exact_parts(fam)


# (theorem, m, growth_steps, parameter) of the sweeps whose j = 1 ledger
# entries read a generated member's one part
_ONE_MEMBER_SWEEPS = [
    ("helly", 5, 12, {"d": 2}),
    ("prop-a", 2, 40, {"lam": 1}),
]


@pytest.mark.parametrize("field", [GF2, RATIONALS], ids=["gf2", "q"])
@pytest.mark.parametrize("theorem, m, growth, params", _ONE_MEMBER_SWEEPS,
                         ids=[row[0] for row in _ONE_MEMBER_SWEEPS])
def test_one_member_entries_match_the_union_find_path(theorem, m, growth, params, field):
    # the same mask with parts None counts its components by union-find
    observed = []
    for seed in range(30):
        fam = random_family(12, m, growth, seed)
        for entry in run_verifier(theorem, fam, field, **params).ledger.entries:
            if entry.j == 1:
                member = fam.members[entry.indices[0]]
                bare = Subcomplex._from_mask(fam.ambient, member.mask)
                assert bare.parts is None and member.parts is not None
                assert entry.observed == betti_number(bare, entry.degree, field)
                observed.append(entry.observed)
    assert len(observed) == 30 * m
    assert 0 in observed and any(observed)  # members with and without holes


@pytest.mark.parametrize("theorem, m, growth, params", _ONE_MEMBER_SWEEPS,
                         ids=[row[0] for row in _ONE_MEMBER_SWEEPS])
def test_sweeps_count_no_member_components_by_union_find(monkeypatch, theorem, m, growth,
                                                         params):
    families = []
    bare = []  # (family position, mask) of every parts-less component count

    def recording_family(*args):
        families.append(random_family(*args))
        return families[-1]

    def recording_components(index, mask, parts=None):
        if parts is None:
            bare.append((len(families) - 1, mask))
        return _components(index, mask, parts)

    monkeypatch.setattr(helly_engine, "random_family", recording_family)
    monkeypatch.setattr(homology, "_components", recording_components)
    sweep(theorem, 40, m=m, growth_steps=growth, seed=7, **params)
    assert len(families) == 40 and bare  # meets of two or more use union-find
    for pos, fam in enumerate(families):
        masks = [sub.mask for sub in fam.members]
        # a member that is also a meet of two or more may be counted as one
        meets = {functools.reduce(operator.and_, combo)
                 for j in range(2, m + 1) for combo in itertools.combinations(masks, j)}
        counted = {mask for p, mask in bare if p == pos}
        assert not counted & (set(masks) - meets), pos


def test_empty_complex_conventions():
    empty = build_complex([])
    bv = reduced_betti(empty, GF2)
    assert not bv.nonempty
    assert bv.betti_at(-1) == 1
    assert reduced_euler(bv) == -1
    assert bv.betti == {}


def test_field_tags_round_trip():
    assert CoefficientField.from_tag("gf2") is GF2
    assert CoefficientField.from_tag("q") is RATIONALS
    with pytest.raises(ContractViolation):
        CoefficientField.from_tag("gf3")


def test_b0_cross_check_raises_invariant_violation(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(homology, "_components", lambda index, mask, parts=None: 5)
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
        "homology._components = lambda index, mask, parts=None: 5\n"
        "try:\n"
        "    homology.reduced_betti(build_complex([[0, 1]]))\n"
        "except InvariantViolation:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def _components_dropping_last_edge(index, mask, parts=None):
    """`homology._components` with a planted bug: the union-find skips the
    mask's last edge."""
    if parts is not None:
        return len(parts)
    root = list(range(index.n_vertices))
    merges = 0
    for u, v in list(_select(index.edges, mask >> index.n_vertices))[:-1]:
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            root[u] = v
            merges += 1
    return index.count(mask, 0) - merges


@pytest.mark.parametrize("field", [GF2, RATIONALS], ids=["gf2", "q"])
def test_b0_cross_check_catches_a_union_find_bug_in_a_sweep(monkeypatch, field):
    # the helly conclusion's reduced_betti checks its eliminated b0 against
    # the component count every ledger entry reads, so a sweep exposes a bug
    # in that count
    monkeypatch.setattr(homology, "_components", _components_dropping_last_edge)
    with pytest.raises(InvariantViolation, match="disagrees with graph components"):
        sweep("helly", 20, m=3, growth_steps=30, seed=7, field=field)


def _component_oracle_inputs():
    """(name, ambient, mask) of every parts-less mask the oracle checks."""
    for seed in range(30):
        helly = random_family(12, 5, 12, seed)
        for combo in itertools.combinations(range(5), 2):
            yield f"helly {seed} {combo}", helly.ambient, intersect_members(helly, combo).mask
        prop_a = random_family(12, 2, 40, seed)
        yield f"prop-a {seed}", prop_a.ambient, intersect_members(prop_a, (0, 1)).mask
    for seed in range(10):
        breen = random_family(12, 4, 120, seed)
        for combo in itertools.combinations(range(4), 3):
            yield f"breen {seed} {combo}", breen.ambient, union_members(breen, combo).mask
    grid = grid_complex(12)
    yield "grid 12", grid, _indexed(grid)[1]
    for name in ("tetrahedron_boundary", "torus_7", "projective_plane_6"):
        surface = known_spaces()[name][0]
        yield name, surface, _indexed(surface)[1]


def test_union_find_component_count_matches_a_graph_search():
    # the union-find, with parts None, against _reference_parts' graph search
    counts = set()
    for name, ambient, mask in _component_oracle_inputs():
        got = _components(ambient._index, mask)
        want = len(_reference_parts(Subcomplex._from_mask(ambient, mask)))
        assert got == want, f"{name}: mask {mask:#x}"
        counts.add(got)
    assert {0, 1, 2} <= counts  # empty, connected and disconnected masks
