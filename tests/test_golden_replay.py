"""Byte-identity of reports against the benchmark's golden records.

Replays the CLI argv corpus and the first trials of every benchmark
workload at the primary and holdout seeds, and compares them with the
digests and outputs recorded under ``perfbench/golden``.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gate  # noqa: E402
import workloads  # noqa: E402


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
