import functools
import itertools
import json
import operator
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helly_topo.complex_core import (
    SimplicialComplex,
    SubcomplexFamily,
    Subcomplex,
    build_complex,
    face_closure,
    faces_of,
    grid_complex,
    intersect_members,
    parse_family,
    union_members,
)
from helly_topo.errors import ContractViolation, MalformedInput, ValidationError
from helly_topo.helly_engine import random_family
from helly_topo.homology import GF2, BettiVector
from helly_topo.transversal_plane import PolygonFamily, random_stabbed_family

from conftest import known_spaces, make_family


def test_build_triangle_boundary():
    cx = build_complex([[0, 1], [1, 2], [0, 2]])
    assert len(cx.simplices) == 6  # 3 vertices + 3 edges
    assert cx.dimension == 1


def test_build_single_vertex():
    cx = build_complex([[0]])
    assert cx.simplices == frozenset({(0,)})


def test_build_solid_triangle_face_count():
    cx = build_complex([[0, 1, 2]])
    assert len(cx.simplices) == 7  # 2^3 - 1


def test_build_rejects_duplicate_vertex():
    with pytest.raises(MalformedInput):
        build_complex([[0, 0]])


def test_build_rejects_negative_vertex():
    with pytest.raises(MalformedInput):
        build_complex([[0, -1]])


def test_input_order_is_canonicalized():
    assert build_complex([[2, 0, 1]]).simplices == build_complex([[0, 1, 2]]).simplices


def test_intersect_shared_vertex():
    ambient = build_complex([[0, 1], [1, 2]])
    a = Subcomplex(ambient, face_closure([(0, 1)]))
    b = Subcomplex(ambient, face_closure([(1, 2)]))
    fam = make_family(ambient, [a, b])
    inter = intersect_members(fam, {0, 1})
    assert inter.member_simplices == frozenset({(1,)})


def test_intersect_with_itself_is_identity():
    ambient = build_complex([[0, 1, 2]])
    a = Subcomplex(ambient, face_closure([(0, 1, 2)]))
    fam = make_family(ambient, [a])
    assert intersect_members(fam, {0}).member_simplices == a.member_simplices


def test_intersect_edge_paths_sharing_edge():
    # paths 0-1-2 and 1-2-3 share the edge (1,2) with both its vertices
    ambient = build_complex([[0, 1], [1, 2], [2, 3]])
    a = Subcomplex(ambient, face_closure([(0, 1), (1, 2)]))
    b = Subcomplex(ambient, face_closure([(1, 2), (2, 3)]))
    fam = make_family(ambient, [a, b])
    inter = intersect_members(fam, {0, 1})
    assert inter.member_simplices == frozenset({(1,), (2,), (1, 2)})


def test_union_disjoint_vertices():
    ambient = build_complex([[0], [1]])
    fam = make_family(
        ambient,
        [Subcomplex(ambient, frozenset({(0,)})), Subcomplex(ambient, frozenset({(1,)}))],
    )
    assert union_members(fam, {0, 1}).member_simplices == frozenset({(0,), (1,)})


def test_union_three_edges_gives_triangle_boundary():
    ambient = build_complex([[0, 1], [1, 2], [0, 2]])
    members = [Subcomplex(ambient, face_closure([e])) for e in [(0, 1), (1, 2), (0, 2)]]
    fam = make_family(ambient, members)
    assert len(union_members(fam, {0, 1, 2}).member_simplices) == 6


def test_empty_index_set_rejected():
    ambient = build_complex([[0]])
    fam = make_family(ambient, [Subcomplex(ambient, frozenset({(0,)}))])
    with pytest.raises(ContractViolation):
        intersect_members(fam, set())
    with pytest.raises(ContractViolation):
        union_members(fam, set())


@pytest.mark.parametrize("indices", [[True], [False], [0, True]], ids=["true", "false", "mixed"])
def test_bool_member_index_rejected(indices):
    ambient = build_complex([[0], [1]])
    fam = make_family(
        ambient,
        [Subcomplex(ambient, frozenset({(0,)})), Subcomplex(ambient, frozenset({(1,)}))],
    )
    for combine in (intersect_members, union_members):
        with pytest.raises(ContractViolation, match=r"invalid member index (True|False) "):
            combine(fam, indices)


def test_member_indices_in_any_order_name_one_subfamily():
    ambient = build_complex([[0, 1], [1, 2], [0, 2]])
    members = [Subcomplex(ambient, face_closure([e])) for e in [(0, 1), (1, 2), (0, 2)]]
    fam = make_family(ambient, members)
    for combine in (intersect_members, union_members):
        built = combine(fam, (0, 2))
        assert combine(fam, [2, 0, 2]) is built
        assert combine(fam, range(0, 3, 2)) is built
        assert combine(fam, [1, 1]) is members[1]
        for bad in ([0, 3], [-1], [1.0], ["0"]):
            with pytest.raises(ContractViolation, match=r"invalid member index "):
                combine(fam, bad)


def test_subcomplex_must_be_face_closed():
    ambient = build_complex([[0, 1, 2]])
    with pytest.raises(ValidationError):
        Subcomplex(ambient, frozenset({(0, 1)}))  # missing the vertices


def test_subcomplex_must_live_in_parent():
    ambient = build_complex([[0, 1]])
    with pytest.raises(ValidationError):
        Subcomplex(ambient, frozenset({(5,)}))


def test_subcomplex_errors_name_the_culprit():
    ambient = build_complex([[0, 1, 2]])
    with pytest.raises(ValidationError) as foreign:
        Subcomplex(ambient, frozenset({(0,), (3,)}))
    assert str(foreign.value) == "simplex [3] is not in the ambient complex"
    with pytest.raises(ValidationError) as open_edge:
        Subcomplex(ambient, frozenset({(0,), (0, 1)}))
    assert str(open_edge.value) == "subcomplex is not closed under taking faces"


@pytest.mark.parametrize("simplices, text", [
    ({(0, 1)}, "complex is not closed under taking faces"),
    ({()}, "a simplex needs at least one vertex"),
    ({(0,), (1,), (1, 0)}, "simplex (1, 0) must be a tuple of vertices in increasing order"),
    ({(0,), 1}, "simplex 1 must be a tuple of vertices in increasing order"),
    ({(0,), (0, 0)}, "duplicate vertex inside simplex [0, 0]"),
    ({(0,), (0, -1)}, "vertex ids must be non-negative integers, got -1"),
    ({(0,), ("a",)}, "vertex ids must be non-negative integers, got 'a'"),
    ({(True,)}, "vertex ids must be non-negative integers, got True"),
], ids=["open-edge", "empty", "unsorted", "not-a-tuple", "repeated", "negative", "string", "bool"])
def test_complex_errors_name_the_culprit(simplices, text):
    # only face-closed sets of simplices in as_simplex normal form get in,
    # so nothing malformed reaches the index or the homology code
    with pytest.raises(MalformedInput) as err:
        SimplicialComplex(frozenset(simplices), 1)
    assert str(err.value) == text


def test_complex_from_a_plain_set_equals_the_frozen_one():
    # `_top_boundary_injective`'s cache is keyed on the complex's hash
    cx = SimplicialComplex({(0,), (1,), (0, 1)}, 1)
    assert isinstance(cx.simplices, frozenset)
    assert cx == build_complex([[0, 1]])
    assert hash(cx) == hash(build_complex([[0, 1]]))


def test_empty_family_rejected():
    ambient = build_complex([[0]])
    with pytest.raises(ContractViolation):
        SubcomplexFamily(ambient, (), ())


def _point(v):
    """The one-vertex complex {v} as the whole of itself."""
    return Subcomplex(build_complex([[v]]), frozenset({(v,)}))


@pytest.mark.parametrize("call, error, message", [
    (lambda: SimplicialComplex(frozenset({(0,)}), 0), ContractViolation,
     "declared_embedding_dim must be >= 1"),
    (lambda: build_complex([[0, 1, 2]], 1), ContractViolation,
     "complex dimension 2 exceeds declared embedding dimension 1"),
    (lambda: SubcomplexFamily(build_complex([[0]]), (_point(0),), ("A1", "A2")),
     ValidationError, "labels and members must have the same length"),
    (lambda: SubcomplexFamily(build_complex([[0]]), (_point(1),), ("A1",)),
     ValidationError, "all members must share the family's ambient complex"),
    (lambda: BettiVector(False, {0: 1}, GF2), ContractViolation,
     "an empty complex has all Betti numbers zero"),
    (lambda: PolygonFamily(()), ContractViolation, "a polygon family needs at least one member"),
    (lambda: random_stabbed_family(0, 0, 0.1), ContractViolation, "m must be >= 1"),
], ids=["declared-zero", "dimension-over-declared", "label-count", "foreign-ambient",
        "empty-with-betti", "empty-polygon-family", "empty-stabbed-family"])
def test_constructors_reject_bad_input(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def _family_file():
    return {
        "ambient": [[0, 1, 2], [1, 2, 3]],
        "embedding_dim": 2,
        "members": [
            {"label": "A1", "simplices": [[0, 1, 2]]},
            {"label": "A2", "simplices": [[1, 2, 3]]},
        ],
    }


def test_parse_valid_family():
    fam = parse_family(json.dumps(_family_file()))
    assert fam.size == 2
    assert fam.labels == ("A1", "A2")
    assert fam.ambient.declared_embedding_dim == 2
    # members equal the face closures built through the checking constructor
    assert fam.members == tuple(
        Subcomplex(fam.ambient, face_closure([t])) for t in [(0, 1, 2), (1, 2, 3)]
    )


def test_parse_rejects_simplex_outside_ambient():
    # the error names the first missing simplex of the sorted face closure
    for extra, first_missing in [([5, 6], [5]), ([0, 3], [0, 3]), ([0, 1, 3], [0, 1, 3])]:
        data = _family_file()
        data["members"][0]["simplices"].append(extra)
        with pytest.raises(ValidationError) as err:
            parse_family(json.dumps(data))
        assert str(err.value) == (
            f"member 'A1' lists simplex {first_missing} absent from the ambient complex"
        )


def test_parse_rejects_zero_members():
    data = _family_file()
    data["members"] = []
    with pytest.raises(ContractViolation):
        parse_family(json.dumps(data))


def test_parse_rejects_duplicate_labels():
    data = _family_file()
    data["members"][1]["label"] = "A1"
    with pytest.raises(ValidationError):
        parse_family(json.dumps(data))


def test_grid_complex_counts():
    cx = grid_complex(2)
    counts = Counter(len(s) - 1 for s in cx.simplices)
    assert counts[0] == 9 and counts[2] == 8
    assert counts[1] == 16  # 6 horizontal + 6 vertical + 4 diagonal
    assert cx.declared_embedding_dim == 2


def test_set_operations_properties():
    # monotonicity, idempotence, commutativity, face-closedness
    for seed in range(8):
        fam = random_family(6, 4, 15, seed=seed)
        small = {0, 1}
        large = {0, 1, 2, 3}
        inter_small = intersect_members(fam, small)
        inter_large = intersect_members(fam, large)
        union_small = union_members(fam, small)
        union_large = union_members(fam, large)
        assert inter_large.member_simplices <= inter_small.member_simplices
        assert union_small.member_simplices <= union_large.member_simplices
        for sub in (inter_small, inter_large, union_small, union_large):
            # face-closedness: re-closing changes nothing
            assert face_closure(sub.member_simplices) == sub.member_simplices
        # order of indices is irrelevant
        assert (
            intersect_members(fam, [3, 1, 0, 2]).member_simplices
            == inter_large.member_simplices
        )
        # idempotence
        again = intersect_members(fam, large)
        assert again.member_simplices == inter_large.member_simplices


def test_simplex_set_intersection_is_geometric():
    # two rectangles of a common triangulation: the simplex-set intersection
    # is exactly the triangulated overlap rectangle
    from conftest import rect_subcomplex

    ambient = grid_complex(4)
    a = rect_subcomplex(ambient, 4, 0, 3, 0, 4)
    b = rect_subcomplex(ambient, 4, 2, 4, 0, 4)
    fam = make_family(ambient, [a, b])
    overlap = rect_subcomplex(ambient, 4, 2, 3, 0, 4)
    assert intersect_members(fam, {0, 1}).member_simplices == overlap.member_simplices


def test_ambient_index_orders_by_dimension_then_vertices():
    cx = build_complex([[3, 17, 40], [40, 90], [5]])
    index = cx._index
    assert list(index.order) == sorted(cx.simplices, key=lambda s: (len(s), s))
    assert index.order[:index.n_vertices] == ((3,), (5,), (17,), (40,), (90,))

    def decode(mask):
        return {s for i, s in enumerate(index.order) if mask >> i & 1}

    for i, s in enumerate(index.order):
        assert index.bit[s] == i
        assert decode(index.facets[i]) == {f for f in faces_of(s) if len(f) == len(s) - 1}
        assert decode(index.closures[i]) == set(faces_of(s))
    edges = [s for s in index.order if len(s) == 2]
    assert list(index.edges) == [(index.bit[(u,)], index.bit[(v,)]) for u, v in edges]
    for k in range(3):
        assert decode(index.dim_masks[k]) == {s for s in cx.simplices if len(s) == k + 1}


def test_mask_operations_match_decoded_subcomplexes():
    # every & and | result equals the subcomplex validated from the
    # simplex-set operation on its members' decoded simplices
    for seed in range(60):
        fam = random_family(8, 4, 20, seed=seed)
        for member in fam.members:
            # blobs are grown from triangles: the closure of those triangles
            tris = [s for s in member.member_simplices if len(s) == 3]
            assert member == Subcomplex(fam.ambient, face_closure(tris))
        for j in range(1, 5):
            for combo in itertools.combinations(range(4), j):
                sets = [fam.members[i].member_simplices for i in combo]
                for combine, expected in (
                    (intersect_members, frozenset.intersection(*sets)),
                    (union_members, frozenset.union(*sets)),
                ):
                    got = combine(fam, combo)
                    rebuilt = Subcomplex(fam.ambient, expected)
                    assert got.member_simplices == expected
                    assert got == rebuilt and hash(got) == hash(rebuilt)
                    assert got.is_empty == (not expected)


# the non-grid ambients of known_spaces(), all closed surfaces
_CLOSED_SURFACES = ("tetrahedron_boundary", "torus_7", "projective_plane_6")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), name=st.sampled_from(_CLOSED_SURFACES), m=st.integers(1, 4))
def test_mask_operations_stay_face_closed_on_closed_surfaces(data, name, m):
    # the unchecked & and | results decode to simplex sets that pass the
    # face-closure check of Subcomplex(parent, simplices)
    ambient = known_spaces()[name][0]
    order = sorted(ambient.simplices)
    members = [
        Subcomplex(ambient, face_closure(data.draw(st.sets(st.sampled_from(order), max_size=8))))
        for _ in range(m)
    ]
    fam = make_family(ambient, members)
    indices = data.draw(st.sets(st.integers(0, m - 1), min_size=1))
    sets = [members[i].member_simplices for i in indices]
    for combine, expected in (
        (intersect_members, frozenset.intersection(*sets)),
        (union_members, frozenset.union(*sets)),
    ):
        got = combine(fam, indices)
        assert got == Subcomplex(ambient, got.member_simplices)
        assert got.member_simplices == expected


def _lattice_families():
    """Random families over the generator's parameter range (grid 4-12,
    up to 6 members, growth 0-40), then a parsed family with an empty
    second member whose others meet in one edge or not at all."""
    rng = random.Random("lattice-oracle")
    for _ in range(40):
        yield random_family(rng.randint(4, 12), rng.randint(2, 6), rng.randint(0, 40),
                            seed=rng.randrange(10 ** 6))
    yield parse_family(json.dumps({
        "ambient": [[0, 1, 2], [1, 2, 3], [3, 4]],
        "embedding_dim": 2,
        "members": [
            {"label": "A", "simplices": [[0, 1, 2]]},
            {"label": "E", "simplices": []},
            {"label": "B", "simplices": [[1, 2, 3]]},
            {"label": "C", "simplices": [[3, 4]]},
        ],
    }))


def test_lattice_entries_match_the_mask_folds():
    """Every ``_meets`` entry is the ``&`` fold of its members' masks and
    every ``_joins`` entry the ``|`` fold; a meet of two or more members
    has ``parts`` None, and one whose prefix is empty is that prefix
    object.  Kills the planted variants "absorb a nonempty operand"
    (``_meet`` returns ``a`` when ``b`` is empty, or when ``b`` contains
    it) and "absorb in ``_join``" (``_join`` returns an empty ``a``
    itself)."""
    absorbed = nonempty = 0
    for fam in _lattice_families():
        masks = [sub.mask for sub in fam.members]
        for j in range(1, fam.size + 1):
            for combo in itertools.combinations(range(fam.size), j):
                intersect_members(fam, combo)
                union_members(fam, combo)
        for lattice, fold in ((fam._meets, operator.and_), (fam._joins, operator.or_)):
            assert len(lattice) == 2 ** fam.size - 1
            for key, sub in lattice.items():
                assert sub.mask == functools.reduce(fold, (masks[i] for i in key)), key
                assert sub.parent is fam.ambient
        for key, sub in fam._meets.items():
            if len(key) > 1:
                assert sub.parts is None, key
                prefix = fam._meets[key[:-1]]
                if prefix.is_empty:
                    assert sub is prefix, key
                    absorbed += 1
                nonempty += not sub.is_empty
    assert absorbed and nonempty
