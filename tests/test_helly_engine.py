import bisect
import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from helly_topo import complex_core
from helly_topo.complex_core import (
    Subcomplex,
    SubcomplexFamily,
    as_simplex,
    build_complex,
    face_closure,
    grid_complex,
    intersect_members,
    parse_family,
    union_members,
)
from helly_topo.errors import ContractViolation
from helly_topo.helly_engine import (
    THEOREMS,
    LedgerEntry,
    _grid_setup,
    _ledger,
    random_family,
    run_verifier,
    sweep,
)
from helly_topo.homology import GF2, RATIONALS, betti_number, reduced_betti

from conftest import cells_subcomplex, make_family, rect_subcomplex, sweep_counts


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


# --- ledger subfamilies -----------------------------------------------------

# (theorem, m, growth_steps, parameters) of random families on the 8x8 grid
# with non-vacuous entries in every block; thm-b's size-m union is built
# from a prefix that no ledger block needs, and at lambda = 0 its degree is
# 1, where a planar union can have homology
_LEDGER_ROWS = [
    ("prop-a", 3, 30, {"lam": 1}),
    ("thm-b", 3, 40, {"lam": 0}),
    ("helly", 4, 12, {"d": 2}),
    ("sigma", 4, 20, {}),
    ("breen", 4, 20, {"d": 2}),
]


def _path_family():
    """A parsed family on the path 0-1-...-9 whose members have 2, 2, 3 and
    2 components; parsed members carry no parts."""
    return parse_family(json.dumps({
        "ambient": [[v, v + 1] for v in range(9)],
        "embedding_dim": 1,
        "members": [
            {"label": "A", "simplices": [[0, 1], [4, 5]]},
            {"label": "B", "simplices": [[2, 3], [6, 7]]},
            {"label": "C", "simplices": [[1, 2], [5, 6], [9]]},
            {"label": "D", "simplices": [[1, 2], [3, 4]]},
        ],
    }))


def _checked_entries(fam, theorem, field, params) -> list:
    """The non-vacuous ledger entries, each checked against the public call
    on its indices in a copy of the family that has built nothing yet, and
    against the fold of its members' masks with parts None (components by
    union-find)."""
    entries = [e for e in run_verifier(theorem, fam, field, **params).ledger.entries
               if e.status != "vacuous"]
    for entry in entries:
        fresh = SubcomplexFamily(fam.ambient, fam.members, fam.labels)
        if entry.kind == "intersection":
            public, op = intersect_members(fresh, entry.indices), operator.and_
        else:
            public, op = union_members(fresh, entry.indices), operator.or_
        mask = functools.reduce(op, (fam.members[i].mask for i in entry.indices))
        assert public.mask == mask, entry
        bare = Subcomplex._from_mask(fam.ambient, mask)
        assert entry.observed == betti_number(public, entry.degree, field), entry
        assert entry.observed == betti_number(bare, entry.degree, field), entry
    return entries


def test_ledger_entry_keeps_its_dataclass_behaviour():
    entry = LedgerEntry((0, 2), "union", 1, 0, "pass")
    same = LedgerEntry(indices=(0, 2), kind="union", degree=1, observed=0, status="pass")
    assert entry == same and hash(entry) == hash(same)
    assert entry != LedgerEntry((0, 2), "union", 1, 1, "fail")
    assert repr(entry) == \
        "LedgerEntry(indices=(0, 2), kind='union', degree=1, observed=0, status='pass')"
    assert entry.to_dict() == {"indices": [0, 2], "j": 2, "kind": "union", "degree": 1,
                               "observed": 0, "status": "pass"}
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.status = "fail"


@pytest.mark.parametrize("field", [GF2, RATIONALS], ids=["gf2", "q"])
@pytest.mark.parametrize("theorem, m, growth, params", _LEDGER_ROWS,
                         ids=[row[0] for row in _LEDGER_ROWS])
def test_ledger_entries_match_the_public_calls(theorem, m, growth, params, field):
    statuses = set()
    for seed in range(20):
        entries = _checked_entries(random_family(8, m, growth, seed), theorem, field, params)
        assert entries
        statuses.update(e.status for e in entries)
    assert statuses == {"pass", "fail"}


@pytest.mark.parametrize("field", [GF2, RATIONALS], ids=["gf2", "q"])
@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_ledger_entries_match_the_public_calls_on_a_parsed_family(theorem, field):
    fam = _path_family()
    assert all(sub.parts is None for sub in fam.members)
    assert [betti_number(sub, 0) + 1 for sub in fam.members] == [2, 2, 3, 2]
    assert _checked_entries(fam, theorem, field, {"d": 2, "lam": 0})


@pytest.mark.parametrize("field", [GF2, RATIONALS], ids=["gf2", "q"])
def test_ledger_over_a_reduced_betti_callback_matches_the_verifier(field):
    # the ledger's own Betti source swapped for the full Betti vector of
    # the public intersection or union: the entries must not change
    cases = [(random_family(8, m, growth, seed), theorem, params)
             for theorem, m, growth, params in _LEDGER_ROWS for seed in range(20)]
    cases += [(_path_family(), theorem, {}) for theorem in sorted(THEOREMS)]
    statuses = set()
    for fam, theorem, params in cases:
        def betti(kind, indices, degree):
            combine = intersect_members if kind == "intersection" else union_members
            return reduced_betti(combine(fam, indices), field).betti_at(degree)

        row = THEOREMS[theorem]
        p = params.get("lam", 0) if row.param == "lambda" else params.get("d", 2)
        entries = _ledger(row, fam.size, p, fam.ambient.dimension, betti)
        assert entries == run_verifier(theorem, fam, field, **params).ledger.entries
        statuses.update(e.status for e in entries)
    assert statuses == {"pass", "fail", "vacuous"}


@pytest.mark.parametrize("theorem, m, growth, params", _LEDGER_ROWS,
                         ids=[row[0] for row in _LEDGER_ROWS])
def test_ledger_checks_each_call_and_builds_each_subfamily_once(
        monkeypatch, theorem, m, growth, params):
    checked = []
    built = []
    check = complex_core._check_indices
    missing = complex_core._Lattice.__missing__

    def counting_check(family, indices):
        checked.append(list(indices))
        return check(family, indices)

    def recording_missing(lattice, key):
        built.append(("intersection" if lattice.combine is complex_core._meet else "union", key))
        return missing(lattice, key)

    monkeypatch.setattr(complex_core, "_check_indices", counting_check)
    monkeypatch.setattr(complex_core._Lattice, "__missing__", recording_missing)
    verdict = run_verifier(theorem, random_family(8, m, growth, 3), **params)
    entries = [e for e in verdict.ledger.entries if e.status != "vacuous"]
    # one public call, so one index check, per entry and one for the conclusion
    assert checked == [list(e.indices) for e in entries] + [list(range(m))]
    conclusion = THEOREMS[theorem].conclusion
    if conclusion not in ("union", "intersection"):
        conclusion = "intersection"
    # every prefix, built once each
    needed = [(e.kind, e.indices) for e in entries] + [(conclusion, tuple(range(m)))]
    prefixes = {(kind, key[:k]) for kind, key in needed for k in range(1, len(key) + 1)}
    assert sorted(built) == sorted(prefixes)
    if theorem == "thm-b":
        assert ("union", tuple(range(m - 1))) in built  # no ledger block needs it


def _reference_ledger(row, m, p, dim, betti) -> tuple:
    """The ledger loop as it stood before its blocks were planned once per
    (hypotheses, m, p, dim): every block's sizes, degrees and subfamilies
    recomputed on each call."""
    entries = []
    for kind, sizes, degree_of in row.hypotheses:
        for j in sizes(m, p):
            degree = degree_of(m, j, p)
            vacuous = degree < -1 or degree > dim
            for combo in itertools.combinations(range(m), j):
                if vacuous:
                    entries.append(LedgerEntry(combo, kind, degree, None, "vacuous"))
                else:
                    observed = betti(kind, combo, degree)
                    status = "pass" if observed == 0 else "fail"
                    entries.append(LedgerEntry(combo, kind, degree, observed, status))
    return tuple(entries)


def _recorded_ledger(ledger, row, m, p, dim) -> tuple:
    """A ledger's entries and the callback calls it made, in order, over a
    made-up Betti source that passes some entries and fails others."""
    calls = []

    def betti(kind, indices, degree):
        calls.append((kind, indices, degree))
        return (sum(indices) + degree + len(kind)) % 3

    return ledger(row, m, p, dim, betti), calls


def test_ledger_plan_matches_the_reference_loop_on_every_row():
    statuses = set()
    for row in THEOREMS.values():
        for m in range(1, 8):
            for p in range(5):
                for dim in range(1, 4):
                    got = _recorded_ledger(_ledger, row, m, p, dim)
                    assert got == _recorded_ledger(_reference_ledger, row, m, p, dim), \
                        (row, m, p, dim)
                    statuses.update(e.status for e in got[0])
    assert statuses == {"pass", "fail", "vacuous"}


def test_a_replaced_row_reads_its_own_ledger_plan():
    helly = THEOREMS["helly"]
    shifted = dataclasses.replace(
        helly, hypotheses=(("union", helly.hypotheses[0][1], lambda m, j, p: p - j + 1),))
    renamed = dataclasses.replace(helly, conclusion="nonempty")
    for row in (helly, shifted, renamed, helly):
        assert _recorded_ledger(_ledger, row, 5, 2, 2) == \
            _recorded_ledger(_reference_ledger, row, 5, 2, 2)
    assert _ledger(shifted, 5, 2, 2, lambda *a: 0) != _ledger(helly, 5, 2, 2, lambda *a: 0)


# --- every subfamily is an instance ----------------------------------------


def _subfamily_closure(theorem, fam, d, hypothesis_b0=True) -> tuple:
    """(satisfied, violated) over the subfamilies S of fam with |S| at least
    the row's minimum size, each taken as a theorem instance of its own:
    its hypotheses are `_ledger` over S, reading each Betti number of F
    through S's indices, and its conclusion is checked on the intersection
    of S.  With ``hypothesis_b0`` False the hypotheses read every reduced
    b_0 as 0, a planted bug the closure must catch."""
    row = THEOREMS[theorem]
    dim = fam.ambient.dimension
    memo = {}

    def betti(kind, indices, degree):
        key = (kind, indices, degree)
        if key not in memo:
            combine = intersect_members if kind == "intersection" else union_members
            memo[key] = betti_number(combine(fam, indices), degree, GF2)
        return memo[key]

    satisfied = violated = 0
    for size in range(row.min_size(d), fam.size + 1):
        for S in itertools.combinations(range(fam.size), size):
            def betti_s(kind, indices, degree, S=S):
                if degree == 0 and not hypothesis_b0:
                    return 0
                return betti(kind, tuple(S[i] for i in indices), degree)

            entries = _ledger(row, size, d, dim, betti_s)
            if any(e.status == "fail" for e in entries):
                continue
            satisfied += 1
            inter = intersect_members(fam, S)
            if row.conclusion == "acyclic":
                vector = reduced_betti(inter, GF2)
                holds = vector.nonempty and all(vector.betti_at(k) == 0 for k in range(dim + 1))
            else:
                holds = not inter.is_empty
            violated += not holds
    return satisfied, violated


# (theorem, m, growth_steps, least satisfied instances over SUBFAMILY_TRIALS
# draws): the helly-intersect draw at d 2, whose 5-member families never
# satisfy the hypotheses whole, and breen at growth 40
SUBFAMILY_ROWS = [("helly", 5, 12, 30), ("breen", 4, 40, 600)]
SUBFAMILY_TRIALS = 200


@pytest.mark.parametrize("theorem, m, growth, floor", SUBFAMILY_ROWS,
                         ids=[row[0] for row in SUBFAMILY_ROWS])
def test_every_subfamily_is_a_theorem_instance(theorem, m, growth, floor):
    satisfied = violated = 0
    for t in range(SUBFAMILY_TRIALS):
        sat, bad = _subfamily_closure(theorem, random_family(12, m, growth, 1_000_000 + t), 2)
        satisfied += sat
        violated += bad
    assert violated == 0
    assert satisfied >= floor


def test_subfamily_closure_kills_a_hypothesis_that_reads_b0_as_zero():
    # the whole 5-member helly-intersect family almost never passes even
    # the bugged hypotheses, so the kills come from its subfamilies
    killed = [t for t in range(SUBFAMILY_TRIALS)
              if _subfamily_closure("helly", random_family(12, 5, 12, 1_000_000 + t), 2,
                                    hypothesis_b0=False)[1]]
    assert killed


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


# SHA-256 over the member masks of random_family for every (grid_n, m,
# growth_steps) in RANDOM_FAMILY_SETS and seeds 0-39 each, recorded with the
# sorted-copy frontier that preceded the insertion-sorted one.
RANDOM_FAMILY_SETS = (
    (2, 3, 0), (2, 4, 200), (3, 2, 5), (5, 3, 20),
    (8, 4, 40), (12, 4, 120), (12, 5, 12), (12, 2, 200),
)
RANDOM_FAMILY_DRAWS_SHA256 = "8277925158729f78779823c61684a8c837979f715114a6e26288902fc536ac09"


def test_random_family_draws_are_pinned():
    digest = hashlib.sha256()
    for grid_n, m, growth_steps in RANDOM_FAMILY_SETS:
        for seed in range(40):
            for member in random_family(grid_n, m, growth_steps, seed).members:
                digest.update(f"{member.mask:x},".encode())
            digest.update(b";")
    assert digest.hexdigest() == RANDOM_FAMILY_DRAWS_SHA256


@functools.lru_cache(maxsize=None)
def _grid_triangles(n):
    """grid_complex(n)'s triangles in sorted order: each one's closure mask
    and its edge neighbours as sorted positions, found by shared edges."""
    ambient = grid_complex(n)
    bit = ambient._index.bit
    tris = sorted(s for s in ambient.simplices if len(s) == 3)
    closures = [
        functools.reduce(operator.or_, (1 << bit[face] for k in (1, 2, 3)
                                        for face in itertools.combinations(t, k)))
        for t in tris
    ]
    edges = [set(itertools.combinations(t, 2)) for t in tris]
    adjacency = [
        [j for j, other in enumerate(edges) if j != i and own & other]
        for i, own in enumerate(edges)
    ]
    return closures, adjacency


@pytest.mark.parametrize("n", range(1, 13))
def test_grid_setup_rows_are_padded_edge_neighbours(n):
    _, closures, neighbours = _grid_setup(n)
    expected_closures, adjacency = _grid_triangles(n)
    sentinel = len(adjacency)
    assert list(closures) == expected_closures
    assert len(neighbours) == sentinel
    for i, row in enumerate(neighbours):
        # real positions ascend and lie below the sentinel, so this row is
        # sorted and the sentinel is never a real position
        real = adjacency[i]
        assert len(row) == 3
        assert list(row) == real + [sentinel] * (3 - len(real))
        assert all(i in neighbours[j] for j in real)  # the relation is symmetric
    if n == 1:  # two triangles, one neighbour each: doubly padded
        assert neighbours == [(1, 2, 2), (0, 2, 2)]


def _reference_random_family(grid_n, m, growth_steps, seed):
    """random_family's growth loop with each frontier index drawn by
    rng.randrange, over the adjacency _grid_triangles builds from the
    ambient: the (parts, mask) pair of every member."""
    ambient = grid_complex(grid_n)
    closures, adjacency = _grid_triangles(grid_n)
    rng = random.Random(f"random-family:{grid_n}:{m}:{growth_steps}:{seed}")
    vertices = ambient._index.dim_masks[0]
    members = []
    positions = range(len(closures))
    for _ in range(m):
        start = rng.choice(positions)
        mask = closures[start]
        frontier = list(adjacency[start])
        seen = {start, *frontier}
        for _ in range(growth_steps):
            if not frontier:
                break
            tri = frontier.pop(rng.randrange(len(frontier)))
            mask |= closures[tri]
            for nb in adjacency[tri]:
                if nb not in seen:
                    seen.add(nb)
                    bisect.insort(frontier, nb)
        members.append(((mask & vertices,), mask))
    return members


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    grid_n=st.integers(2, 12),
    m=st.integers(1, 5),
    growth_steps=st.integers(0, 250),
    seed=st.integers(-10 ** 6, 10 ** 6),
)
@example(grid_n=2, m=3, growth_steps=250, seed=0)  # the 8 triangles run out
@example(grid_n=12, m=5, growth_steps=250, seed=1)  # frontiers cross 8, 16 and 32
# the benchmark's three generator settings (breen, prop-a, helly)
@example(grid_n=12, m=4, growth_steps=120, seed=1_000_000)
@example(grid_n=12, m=2, growth_steps=40, seed=1_000_000)
@example(grid_n=12, m=5, growth_steps=12, seed=1_000_000)
def test_random_family_matches_the_randrange_reference(grid_n, m, growth_steps, seed):
    family = random_family(grid_n, m, growth_steps, seed)
    assert [(member.parts, member.mask) for member in family.members] == \
        _reference_random_family(grid_n, m, growth_steps, seed)


def test_random_family_contract_checks():
    with pytest.raises(ContractViolation):
        random_family(1, 2, 5, seed=0)
    with pytest.raises(ContractViolation):
        random_family(4, 0, 5, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: grid_complex(0), "grid size must be >= 1"),
    (lambda: random_family(4, 2, -1, seed=0), "growth_steps must be >= 0"),
    (lambda: sweep("sigma", 0), "trials must be >= 1"),
], ids=["grid-size-zero", "negative-growth", "zero-trials"])
def test_generators_and_sweeps_reject_bad_sizes(call, message):
    with pytest.raises(ContractViolation) as exc:
        call()
    assert str(exc.value) == message


# --- sweep -----------------------------------------------------------------


def test_sweep_counts_are_consistent():
    rep = sweep("sigma", 40, grid_n=8, m=3, growth_steps=30, seed=5)
    assert rep.trials == 40
    assert rep.hypotheses_satisfied == rep.conclusion_held + rep.conclusion_violated
    assert rep.conclusion_violated == 0
    assert rep.hypotheses_failed_conclusion_failed <= rep.trials - rep.hypotheses_satisfied


# every row's sweep on grid_complex(8) at seed 9 both meets and misses its
# hypotheses within 20 trials
_SWEEP_ROWS = [
    ("prop-a", 3, 30, {"lam": 1}),
    ("thm-b", 3, 40, {"lam": 0}),
    ("helly", 3, 25, {"d": 2}),
    ("sigma", 4, 20, {}),
    ("breen", 4, 20, {"d": 2}),
]


@pytest.mark.parametrize("field", [GF2, RATIONALS], ids=["gf2", "q"])
@pytest.mark.parametrize("theorem, m, growth, params", _SWEEP_ROWS,
                         ids=[row[0] for row in _SWEEP_ROWS])
def test_sweep_matches_individual_verdicts(theorem, m, growth, params, field):
    rep = sweep(theorem, 20, grid_n=8, m=m, growth_steps=growth, seed=9, field=field, **params)
    verdicts = [run_verifier(theorem, random_family(8, m, growth, 9 * 1_000_003 + t), field,
                             **params)
                for t in range(20)]
    report = rep.to_dict()
    assert report["counts"] == sweep_counts(verdicts)
    histogram = Counter((e.j, e.degree) for v in verdicts for e in v.ledger.failed_entries())
    assert report["hypothesis_failure_histogram"] == [
        {"j": j, "degree": degree, "count": count}
        for (j, degree), count in sorted(histogram.items())
    ]
    assert 0 < report["counts"]["hypotheses_satisfied"] < 20


def test_sweep_reports_are_byte_identical():
    a = sweep("thm-b", 25, grid_n=8, m=2, growth_steps=30, seed=11, lam=1)
    b = sweep("thm-b", 25, grid_n=8, m=2, growth_steps=30, seed=11, lam=1)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_sweep_rejects_unknown_theorem():
    with pytest.raises(ContractViolation):
        sweep("nope", 1)


def test_sweep_histogram_keys():
    rep = sweep("sigma", 30, grid_n=8, m=3, growth_steps=20, seed=2)
    for row in rep.to_dict()["hypothesis_failure_histogram"]:
        assert 1 <= row["j"] <= 3 and row["count"] >= 1


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


# --- the union side against the intersection side ---------------------------


def _mayer_vietoris_breaches(fam, field) -> tuple:
    """Every breach, over the subfamilies T of two or more members, of two
    consequences of the Mayer-Vietoris spectral sequence of the cover of
    the union of T by its members, E^1_{p,q} = sum over |S| = p + 1 of
    H_q(meet S), which converges to H_{p+q}(union T):
    - the bound b_n(union T) <= sum over p + q = n, |S| = p + 1, S in T, of
      b_q(meet S), in unreduced homology, for n <= 2;
    - the nerve theorem: when every nonempty meet S is acyclic, the union
      has the reduced Betti numbers of the nerve, the complex on T whose
      simplices are the S with a nonempty meet.
    Intersections come from `_meet` and unions from `_join`'s parts merge,
    so each side checks the other.  Every value of the family is read
    through `betti_number`, as the ledgers read it; the nerve's comes from
    `reduced_betti`.  Returns the breaches and the number of good covers."""
    def betti(cx):
        # reduced b_0, b_1, b_2 and the unreduced ones
        reduced = [betti_number(cx, q, field) for q in range(3)]
        return reduced, [reduced[0] + (not cx.is_empty)] + reduced[1:]

    m = fam.size
    meets = {S: betti(intersect_members(fam, S))
             for k in range(1, m + 1) for S in itertools.combinations(range(m), k)}
    breaches, good_covers = [], 0
    for size in range(2, m + 1):
        for T in itertools.combinations(range(m), size):
            reduced, unreduced = betti(union_members(fam, T))
            covers = [S for k in range(1, size + 1) for S in itertools.combinations(T, k)]
            for n in range(3):
                bound = sum(meets[S][1][n + 1 - len(S)] for S in covers if len(S) <= n + 1)
                if unreduced[n] > bound:
                    breaches.append((T, f"b{n} {unreduced[n]} > {bound}"))
            nerve = [S for S in covers if not intersect_members(fam, S).is_empty]
            if not any(any(meets[S][0]) for S in nerve):
                good_covers += 1
                expected = reduced_betti(build_complex(nerve), field)
                # a planar union has no homology above degree 2
                observed = reduced + [0] * (size - 3)
                if observed != [expected.betti_at(q) for q in range(max(3, size))]:
                    breaches.append((T, f"union {observed} != nerve {expected.betti}"))
    return breaches, good_covers


# (grid_n, m, growth_steps, draws): the helly-intersect, breen-g40 and
# breen-union parameters; growth 12 gives many good covers, growth 120
# unions with many holes
MAYER_VIETORIS_DRAWS = [(12, 5, 12, 100), (12, 4, 40, 50), (12, 4, 120, 40)]


@pytest.mark.parametrize("field", [GF2, RATIONALS], ids=["gf2", "q"])
def test_unions_obey_mayer_vietoris_over_their_intersections(field):
    good_covers = 0
    for grid_n, m, growth, draws in MAYER_VIETORIS_DRAWS:
        for seed in range(draws):
            breaches, good = _mayer_vietoris_breaches(random_family(grid_n, m, growth, seed), field)
            assert breaches == [], (m, growth, seed)
            good_covers += good
    # the nerve relation is not vacuous
    assert good_covers > 0
