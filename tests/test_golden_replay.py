"""Byte-identity of reports: the one gate that pins them.

Replays the CLI argv corpus and the first trials of every benchmark
workload at the primary and holdout seeds, and compares them with the
digests and outputs recorded under ``perfbench/golden``. Then runs each
command of ``PINNED_REPORTS`` in-process and compares the SHA-256 of its
stdout with the row's digest.  Last, runs short sweeps under the
benchmark's tracer: a transversal sweep pins how many calls each span
records, an engine sweep how many its generator and verifier spans do.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from helly_topo import helly_engine, transversal_plane  # noqa: E402


@pytest.fixture(autouse=True)
def repo_root(monkeypatch):
    # corpus argv name their input files relative to the repository root
    monkeypatch.chdir(ROOT)


def test_cli_corpus_replays_byte_for_byte():
    assert gate.check_cli_corpus() == []


@pytest.mark.parametrize("seed", [workloads.PRIMARY_SEED, workloads.HOLDOUT_SEED])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reports_match_golden_digests(name, seed):
    run = workloads.trial_runner(workloads.WORKLOADS[name])
    texts = [workloads.report_text(run(workloads.sweep_seed(seed, t)))
             for t in range(gate.GATE_TRIALS)]
    assert gate.check_digest(gate.load_digests(), name, seed, gate.GATE_TRIALS, texts) == []


# (name, argv, SHA-256 of stdout): longer runs than the benchmark's golden
# prefixes, each above a comment on what no other pin covers. The draws, and
# so the digests, rest on the random module's internals: CI runs this table
# on every supported Python.
PINNED_REPORTS = [
    # a change to the pair-mask kernel's reports fails here, beyond the
    # benchmark's 4-trial golden digests
    ("thm321-m6", "sweep --theorem thm-321 --m 6 --trials 200 --seed 7",
     "bb625baa9b0ccf29f507307c96b97db6968b8de38849d9126e9d443f68630cf6"),
    # 28 pairs and 126 checked subfamilies a trial, against 15 and 21 at m = 6
    ("thm321-m8", "sweep --theorem thm-321 --m 8 --trials 200 --seed 7",
     "a5e0db07abad3bee884e8cd242df42ce13bbd214529ddf88bb9827fcf955f3da"),
    # grid sweeps rank nothing by elimination inside betti_number, so the
    # conclusion's reduced_betti is the only place a sweep runs the rational
    # column reduction
    ("helly-q", "sweep --theorem helly --m 3 --growth 30 --field q --trials 2000 --seed 7",
     "6828a317291f9d3032464ea3e7c4fec89139a211e4082b48768ef4dd146a9af1"),
    # the generator's inlined frontier draws and the union ledger of the
    # paper's union-vanishing corollary, beyond the benchmark's golden digests
    ("breen", "sweep --theorem breen --m 4 --growth 120 --trials 500 --seed 7",
     "cbab56cc65c6fd34c92b2814d2f48bdb7e5c02330a93a44e1fd40e720ed8f317"),
    # its j = 1 ledger entries read each generated member's one part rather
    # than a union-find, and no other digest pins a prop-a ledger
    ("prop-a-q", "sweep --theorem prop-a --lambda 1 --m 2 --growth 40 --field q --trials 2000 --seed 7",
     "662a761b7b8823d50012156d78be98088c313c26d45ae6edf25dd91349b7ea2f"),
    # its ledger has unions at every subfamily size, each built from its
    # prefix's union
    ("sigma", "sweep --theorem sigma --m 3 --growth 40 --trials 2000 --seed 7",
     "c4a92b8b1eae11a0eeec1c5276e561f8b7d46b4db5e37d3a9b6cd0836a0f2d1c"),
    # its size-m union is built from a prefix that no ledger block needs, and
    # at lambda 0 it sits at degree 1, where a planar union can have homology
    ("thm-b-q", "sweep --theorem thm-b --lambda 0 --m 3 --growth 40 --field q --trials 2000 --seed 7",
     "9dcd7da9cd97a249847f1790ef8e9b4a211fb915d4bb141df4114b45a5b56e09"),
    # helly-intersect's configuration over 2000 trials, beyond the benchmark's
    # golden prefixes: pair meets count components by union-find, and most
    # longer meets extend an empty prefix
    ("helly-m5", "sweep --theorem helly --m 5 --growth 12 --trials 2000 --seed 7",
     "64ae8cb97f4accf210619a8e15b16e9e9ab06e5ce7220039b684fe5d0d9423b1"),
    # breen at growth 40, where a few hypotheses hold: its union ledger reads
    # b0 off merged parts, and reading it as 0 reports 33 violations
    ("breen-g40", "sweep --theorem breen --m 4 --growth 40 --trials 2000 --seed 7",
     "5b42f77600a04a4b990cdd0668b2905e5684c65cba65b82717c2236c18e1933e"),
    # the rational homology of one large member, the union of
    # random_family(12, 4, 120, 3) with 285 triangles: no benchmark workload
    # runs rational elimination on an input this size
    ("homology-q", "homology --in tests/breen_union_q.json --field q",
     "c6de81e99f97eaf5edaa2bfa0e95de88f45f99b6bd846dfe3948566a046c67ac"),
]


@pytest.mark.parametrize("name, argv, sha256", PINNED_REPORTS, ids=[row[0] for row in PINNED_REPORTS])
def test_pinned_report_digests(name, argv, sha256):
    code, out, err = gate.run_cli(argv.split())
    assert (code, gate.digest([out])) == (0, sha256), f"helly-topo {argv}: {err}"


# (theorem, trials, m, calls per span): short transversal sweeps at seed 3.
# The tracer rebinds each spanned function wherever a package module binds
# it, so a caller that reaches one by any other route drops out of a count.
TRACED_SWEEPS = [
    ("thm-321", 5, 6, {"generate": 5, "polygon_draws": 30, "verify": 5, "disjointness": 5}),
    ("lemma-311", 4, None, {"polygon_draws": 4, "profile": 4, "components": 4}),
    ("lemma-312", 4, None, {"polygon_draws": 8, "profile": 4, "components": 4}),
    ("lemma-313", 4, None, {"polygon_draws": 12, "profile": 4, "components": 4}),
]


@pytest.mark.parametrize("theorem, trials, m, calls", TRACED_SWEEPS,
                         ids=[row[0] for row in TRACED_SWEEPS])
def test_traced_transversal_sweeps_pin_every_span_call(theorem, trials, m, calls):
    sizes = {} if m is None else {"m": m}
    plain = transversal_plane.sweep_transversal(theorem, trials, seed=3, **sizes).to_dict()
    t = tracer.Tracer()
    with t:
        traced = transversal_plane.sweep_transversal(theorem, trials, seed=3, **sizes).to_dict()
    assert traced == plain
    assert {name: n for name, n in t.counts.items() if name.endswith(".calls")} == {
        f"transversal_plane.{span}.calls": n for span, n in calls.items()}


# (theorem, trials): short engine sweeps at seed 3.  Each trial is one
# generator and one verifier call, so the generator's self time stays
# readable; the ∩/∪ and Betti counts below them are left unpinned.
TRACED_ENGINE_SWEEPS = [("helly", 5), ("breen", 5)]


@pytest.mark.parametrize("theorem, trials", TRACED_ENGINE_SWEEPS,
                         ids=[row[0] for row in TRACED_ENGINE_SWEEPS])
def test_traced_engine_sweeps_pin_generate_and_verify_calls(theorem, trials):
    plain = helly_engine.sweep(theorem, trials, seed=3).to_dict()
    t = tracer.Tracer()
    with t:
        traced = helly_engine.sweep(theorem, trials, seed=3).to_dict()
    assert traced == plain
    assert (t.counts["helly_engine.generate.calls"], t.counts["helly_engine.verify.calls"]) \
        == (trials, trials)
