"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and counts.  Randomized criteria use fixed seeds, so every run is
reproducible.
"""

import json
import math
import time

import pytest

from helly_topo.helly_engine import random_family, run_verifier, sweep
from helly_topo.homology import GF2, RATIONALS, reduced_betti
from helly_topo.transversal_plane import (
    PolygonFamily,
    components,
    random_convex_polygon,
    random_disjoint_pair,
    sample_oracle,
    sweep_transversal,
    transversal_profile,
    verify_transversal,
)

from conftest import known_spaces, mv_consistency, random_polygon_family, reduced_euler


def _report(number, message):
    print(f"PASS criterion {number}: {message}")


def test_criterion_01_known_space_suite():
    t0 = time.monotonic()
    for name, (cx, expected_gf2, expected_q) in known_spaces().items():
        bv2 = reduced_betti(cx, GF2)
        bvq = reduced_betti(cx, RATIONALS)
        assert bv2.betti == expected_gf2, f"{name} over GF2"
        assert bvq.betti == expected_q, f"{name} over the rationals"
    rp2 = known_spaces()["projective_plane_6"][0]
    assert reduced_betti(rp2, GF2).betti != reduced_betti(rp2, RATIONALS).betti
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"known-space suite took {elapsed:.2f}s"
    _report(1, f"9 known spaces exact over both fields in {elapsed:.2f}s")


def test_criterion_02_euler_poincare_and_mayer_vietoris():
    t0 = time.monotonic()
    pairs = 0
    for seed in range(200):
        fam = random_family(12, 2, 50, seed=seed)
        a, b = fam.members
        for sub in (a, b):
            counts = {}
            for s in sub.member_simplices:
                counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
            alt = sum((-1) ** k * c for k, c in counts.items())
            bv = reduced_betti(sub, GF2)
            assert alt == 1 + reduced_euler(bv)
        report = mv_consistency(a, b, GF2)
        assert report.euler_identity_holds
        assert report.all_rank_inequalities_hold
        pairs += 1
    elapsed = time.monotonic() - t0
    assert pairs >= 200
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, f"{pairs} pairs on the 12x12 grid, exact identities, {elapsed:.1f}s")


def test_criterion_03_helly_sweep():
    t0 = time.monotonic()
    plan = [(3, 30, 2000), (4, 20, 2000), (5, 12, 1200), (6, 12, 800)]
    satisfied = {3: 0, 4: 0, 5: 0, 6: 0}
    violations = 0
    failed_failed = 0
    total = 0
    cycles = 0
    while sum(satisfied.values()) < 300 and cycles < 10:
        for m, growth, trials in plan:
            rep = sweep("helly", trials, grid_n=12, m=m, growth_steps=growth,
                        seed=1000 * cycles + m, d=2)
            satisfied[m] += rep.hypotheses_satisfied
            violations += rep.conclusion_violated
            failed_failed += rep.hypotheses_failed_conclusion_failed
            total += rep.trials
        cycles += 1
    elapsed = time.monotonic() - t0
    got = sum(satisfied.values())
    assert got >= 300, f"only {got} hypothesis-satisfying instances (rates {satisfied})"
    assert violations == 0
    assert failed_failed >= 1, "no non-vacuity witness"
    assert elapsed < 600.0, f"criterion 3 took {elapsed:.0f}s"
    _report(
        3,
        f"{got} satisfying instances over {total} trials "
        f"(per-m {dict(satisfied)}), 0 violations, "
        f"{failed_failed} fail/fail witnesses, {elapsed:.0f}s",
    )


def _collect_engine(tag, needed, chunk_trials, max_chunks, **kwargs):
    satisfied = violations = total = 0
    chunks = 0
    while satisfied < needed and chunks < max_chunks:
        rep = sweep(tag, chunk_trials, seed=500 + chunks, **kwargs)
        satisfied += rep.hypotheses_satisfied
        violations += rep.conclusion_violated
        total += rep.trials
        chunks += 1
    return satisfied, violations, total


@pytest.mark.parametrize(
    "tag,kwargs,chunk",
    [
        ("prop-a", dict(grid_n=12, m=2, growth_steps=60, lam=0), 300),
        ("prop-a", dict(grid_n=12, m=2, growth_steps=40, lam=1), 600),
        ("thm-b", dict(grid_n=12, m=2, growth_steps=60, lam=0), 300),
        ("thm-b", dict(grid_n=12, m=2, growth_steps=40, lam=1), 500),
        ("sigma", dict(grid_n=12, m=3, growth_steps=90), 1200),
        ("breen", dict(grid_n=12, m=4, growth_steps=120, d=2), 3000),
    ],
    ids=["prop-a-l0", "prop-a-l1", "thm-b-l0", "thm-b-l1", "sigma", "breen"],
)
def test_criterion_04_theorem_sweeps(tag, kwargs, chunk):
    t0 = time.monotonic()
    satisfied, violations, total = _collect_engine(tag, 200, chunk, 8, **kwargs)
    elapsed = time.monotonic() - t0
    assert satisfied >= 200, f"{tag} {kwargs}: only {satisfied} satisfying instances"
    assert violations == 0
    assert elapsed < 600.0, f"{tag} sweep took {elapsed:.0f}s"
    label = tag + (f" lambda={kwargs['lam']}" if "lam" in kwargs else "")
    _report(4, f"{label}: {satisfied} satisfying / {total} trials, 0 violations, {elapsed:.0f}s")


def test_criterion_05_breen_sigma_consistency():
    mismatches = 0
    for seed in range(100):
        m = 2 + seed % 2  # m <= d + 1 for d = 2
        fam = random_family(10, m, 35, seed=seed)
        vb = run_verifier("breen", fam, d=2)
        vs = run_verifier("sigma", fam)
        same = (
            vb.ledger.entries == vs.ledger.entries
            and vb.hypotheses_hold == vs.hypotheses_hold
            and vb.conclusion_holds == vs.conclusion_holds
        )
        if not same:
            mismatches += 1
    assert mismatches == 0
    _report(5, "100 families with m <= d+1: identical ledgers and verdicts")


def test_criterion_06_lemma_311_sweep():
    import random

    rng = random.Random("criterion-6")
    passes = 0
    for _ in range(200):
        poly = random_convex_polygon(
            rng,
            (rng.uniform(-4, 4), rng.uniform(-4, 4)),
            rng.uniform(0.3, 2.5),
            rng.randint(3, 16),
        )
        verdict = verify_transversal("lemma-311", PolygonFamily((poly,)))
        assert verdict.passed, poly
        assert verdict.summary.betti() == {"nonempty": True, "b0": 0, "b1": 1}
        passes += 1
    assert passes == 200
    _report(6, "200/200 random polygons give the full direction circle (b0,b1)=(0,1)")


def test_criterion_07_lemma_312_sweep():
    passes = 0
    for seed in range(200):
        a, b = random_disjoint_pair(seed)
        verdict = verify_transversal("lemma-312", PolygonFamily((a, b)))
        assert verdict.passed, seed
        assert verdict.summary.component_count == 1
        assert not verdict.summary.full_circle
        passes += 1
    assert passes == 200
    _report(7, "200/200 disjoint pairs give one component, not the full circle")


def test_criterion_08_lemma_313_sweep():
    import random

    passes = 0
    for seed in range(200):
        a, b = random_disjoint_pair(seed + 10_000)
        rng = random.Random(f"criterion-8:{seed}")
        c = random_convex_polygon(
            rng,
            (rng.uniform(-6, 6), rng.uniform(-6, 6)),
            rng.uniform(0.4, 2.2),
            rng.randint(3, 16),
        )
        verdict = verify_transversal("lemma-313", PolygonFamily((a, b, c)))
        assert verdict.passed, seed
        passes += 1
    assert passes == 200
    _report(8, "200/200 triples with a disjoint pair avoid the full circle (b1=0)")


def test_criterion_09_theorem_321_sweep():
    t0 = time.monotonic()
    retained = 0
    held = 0
    violations = 0
    total = 0
    cycles = 0
    plan = [(6, 40), (7, 25), (8, 15)]
    while retained < 100 and cycles < 8:
        for m, trials in plan:
            rep = sweep_transversal("thm-321", trials, seed=300 * cycles + m, m=m)
            retained += rep.hypotheses_satisfied
            held += rep.conclusion_held
            violations += rep.conclusion_violated
            total += rep.trials
        cycles += 1
    elapsed = time.monotonic() - t0
    assert retained >= 100, f"only {retained} retained instances"
    assert violations == 0
    assert held == retained
    assert elapsed < 600.0, f"criterion 9 took {elapsed:.0f}s"
    _report(
        9,
        f"{retained} retained instances over {total} trials (m in 6..8), "
        f"transversal exists in 100%, {elapsed:.0f}s",
    )


def test_criterion_10_exact_vs_oracle():
    resolution = 10_000
    guard = 4 * math.pi / resolution
    guarded = 0
    disagreements = 0
    for seed in range(100):
        m = 1 + seed % 5
        fam = random_polygon_family(m, seed=seed)
        exact = components(transversal_profile(fam))
        oracle = sample_oracle(fam, resolution)
        if exact.min_arc_width is not None and exact.min_arc_width < guard:
            continue  # the guard does not hold; no agreement promised
        guarded += 1
        agree = (
            exact.component_count == oracle.component_count
            and exact.full_circle == oracle.full_circle
        )
        if not agree:
            disagreements += 1
            assert exact.flags, f"unflagged guarded disagreement at seed {seed}"
    assert guarded > 0
    rate = disagreements / guarded
    assert rate < 0.02, f"guarded disagreement rate {rate:.1%}"
    _report(
        10,
        f"{guarded} guarded families, {disagreements} flagged disagreements "
        f"({rate:.1%} < 2%)",
    )


def test_criterion_11_determinism():
    rep_a = sweep("helly", 40, grid_n=12, m=3, growth_steps=30, seed=77, d=2)
    rep_b = sweep("helly", 40, grid_n=12, m=3, growth_steps=30, seed=77, d=2)
    assert json.dumps(rep_a.to_dict(), sort_keys=True) == json.dumps(
        rep_b.to_dict(), sort_keys=True
    )
    tr_a = sweep_transversal("thm-321", 5, seed=7, m=6)
    tr_b = sweep_transversal("thm-321", 5, seed=7, m=6)
    assert json.dumps(tr_a.to_dict(), sort_keys=True) == json.dumps(
        tr_b.to_dict(), sort_keys=True
    )

    from helly_topo.cli import main
    import contextlib
    import io

    argv = ["sweep", "--theorem", "sigma", "--grid", "10", "--m", "3",
            "--growth", "40", "--trials", "25", "--seed", "42"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] and outs[0]
    _report(11, "library and CLI sweep reruns are byte-identical")
