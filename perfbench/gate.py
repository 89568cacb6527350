"""Correctness gate: golden sweep digests and a byte-for-byte CLI replay.

Golden digests are SHA-256 hashes of a workload's concatenated per-trial
sweep reports, serialized as the CLI writes them.  They were recorded at
the commit that introduced the benchmark (``record_golden.py``) for the
primary and the holdout seed.  The CLI corpus is a fixed list of argv
vectors covering every subcommand, all nine theorem tags and both fields;
its stdout, stderr and exit codes are compared byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
DIGESTS_PATH = os.path.join(GOLDEN_DIR, "digests.json")
CLI_DIR = os.path.join(GOLDEN_DIR, "cli")
CORPUS_PATH = os.path.join(HERE, "corpus", "argv.json")

# Trials per seed that every run replays against the golden digests, and
# the longer prefix checked for free when a run's own seed has a record.
GATE_TRIALS = 4
PREFIX_TRIALS = 100


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_digest(golden: dict, workload: str, seed: int, trials: int, texts) -> list:
    """Problems (empty when the digest matches) for one recorded prefix."""
    expected = golden.get(workload, {}).get(str(seed), {}).get(str(trials))
    if expected is None:
        return [f"{workload}: no golden digest for seed {seed}, {trials} trials"]
    actual = digest(texts)
    if actual != expected:
        return [f"{workload}: seed {seed} first {trials} trials digest {actual} != golden {expected}"]
    return []


def run_cli(argv) -> tuple:
    """Run the CLI in-process; return (exit code, stdout, stderr)."""
    from helly_topo import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def load_corpus() -> list:
    with open(CORPUS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cli_golden(name) -> dict:
    with open(os.path.join(CLI_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_cli_corpus() -> list:
    """Replay every corpus case; return the list of mismatches."""
    problems = []
    for case in load_corpus():
        code, out, err = run_cli(case["argv"])
        golden = cli_golden(case["name"])
        got = {"exit_code": code, "stdout": out, "stderr": err}
        for key in ("exit_code", "stdout", "stderr"):
            if got[key] != golden[key]:
                problems.append(f"cli {case['name']}: {key} differs from golden")
    return problems
