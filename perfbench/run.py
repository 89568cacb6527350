"""helly-topo sweep benchmark.

    python3 perfbench/run.py --workload breen-union --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Closed loop, one process, one client thread: trials run back to back, each
one call to the public sweep entry point with ``trials=1`` and its own
sweep seed.  ``--trace 0`` measures the end-to-end metrics with tracing
off, calibrated against a reference kernel (calibration.py); ``--trace 1`` runs a fixed number of trials, each untraced and traced,
checks that both give byte-identical reports and prints the per-layer
metrics.  Both modes pass the correctness gate (golden sweep digests, CLI
corpus replay, no theorem violation).  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.

Exit codes: 0 result printed and correct, 1 result printed and the gate
failed, 2 no result (no package source in this checkout, or too few trials).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calibration
import gate
import tracer as tracing
import workloads

# At least ten samples beyond the reported p90.
MIN_TRIALS = 100
# Set-up is measured in this many fresh processes; the median is reported.
SETUP_PROBES = 5
# Longest stretch of trials between two reference-kernel runs.
REF_INTERVAL_S = 0.1
# Give up on the timed loop after this long even below MIN_TRIALS, so the
# run ends within its time limit.
LOOP_CAP_S = 120.0
OUT_DIR = os.path.join(workloads.ROOT, "perfbench", "out")

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class TooFewSamples(ValueError):
    pass


def percentile(samples, pct: int) -> float:
    """The pct-th percentile, refused unless ten samples lie beyond it."""
    beyond = len(samples) * (100 - pct) / 100
    if beyond < 10:
        raise TooFewSamples(f"p{pct} of {len(samples)} samples has {beyond:g} beyond it, need 10")
    return statistics.quantiles(samples, n=100)[pct - 1]


# -- provenance --------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(workloads.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance_start() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def provenance_end(prov: dict) -> dict:
    prov["loadavg_1m_end"] = os.getloadavg()[0]
    prov["overloaded"] = max(prov["loadavg_1m_start"], prov["loadavg_1m_end"]) > prov["nproc"]
    return prov


# -- measurement ---------------------------------------------------------------

def probe_setup(workload) -> tuple:
    """(calibrated, raw) set-up seconds of one fresh process."""
    probe = os.path.join(workloads.ROOT, "perfbench", "setup_probe.py")
    done = subprocess.run(
        [sys.executable, probe, "--workload", workload.name],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["calibrated_s"], result["raw_s"]


def timed_loop(run, seed, seconds):
    """Back-to-back trials for `seconds` (and at least MIN_TRIALS), with a
    reference-kernel run before the first trial, at least every
    REF_INTERVAL_S, and after the last.  Only the reports the gate digests
    are kept, so that memory does not grow with the number of trials."""
    from helly_topo.errors import HellyTopoError

    prefix, latencies, refs, errors, violated = [], [], [], 0, 0
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    attempted = 0
    last_ref = -REF_INTERVAL_S
    while True:
        now = clock()
        if now - start > LOOP_CAP_S or (now >= deadline and len(latencies) >= MIN_TRIALS):
            break
        if now - last_ref >= REF_INTERVAL_S:
            refs.append((len(latencies), calibration.reference_seconds()))
            last_ref = clock()
        s = workloads.sweep_seed(seed, attempted)
        attempted += 1
        t0 = clock()
        try:
            report = run(s)
        except HellyTopoError:
            errors += 1
            continue
        latencies.append(clock() - t0)
        violated += report.conclusion_violated
        if len(prefix) < gate.PREFIX_TRIALS:
            prefix.append(report)
    wall = clock() - start
    refs.append((len(latencies), calibration.reference_seconds()))
    return prefix, violated, latencies, refs, errors, attempted, wall


def gate_problems(workload, run, seed, prefix, violated) -> list:
    """The correctness gate, untimed: `prefix` holds the first measured
    reports and `violated` counts theorem violations in all of them."""
    golden = gate.load_digests()
    problems = []
    if violated:
        problems.append(f"{violated} theorem violations in the measured trials")
    if str(seed) in golden.get(workload.name, {}) and len(prefix) >= gate.PREFIX_TRIALS:
        texts = [workloads.report_text(r) for r in prefix[: gate.PREFIX_TRIALS]]
        problems += gate.check_digest(golden, workload.name, seed, gate.PREFIX_TRIALS, texts)
    for gold_seed in (workloads.PRIMARY_SEED, workloads.HOLDOUT_SEED):
        gold = [run(workloads.sweep_seed(gold_seed, t)) for t in range(gate.GATE_TRIALS)]
        problems += gate.check_digest(golden, workload.name, gold_seed, gate.GATE_TRIALS,
                                      [workloads.report_text(r) for r in gold])
    problems += gate.check_cli_corpus()
    return problems


def end_to_end(workload, seed, seconds):
    run = workloads.trial_runner(workload)
    run(workloads.WARMUP_SEED)
    prefix, violated, latencies, refs, errors, attempted, wall = timed_loop(run, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = gate_problems(workload, run, seed, prefix, violated)
    calibrated = calibration.calibrate(latencies, refs)
    setup = [probe_setup(workload) for _ in range(SETUP_PROBES)]
    values = {
        "trials_per_s": len(calibrated) / sum(calibrated),
        "trial_ms_p50": statistics.median(calibrated) * 1e3,
        "trial_ms_p90": percentile(calibrated, 90) * 1e3,
        "setup_s": statistics.median(cal for cal, _raw in setup),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    extra = {
        "samples": len(latencies),
        "error_rate": {"value": errors / attempted, "unit": "ratio"},
        "raw_wall_clock": {
            "trials_per_s": len(latencies) / wall,
            "trial_ms_p50": statistics.median(latencies) * 1e3,
            "trial_ms_p90": percentile(latencies, 90) * 1e3,
            "setup_s": statistics.median(raw for _cal, raw in setup),
        },
        "reference_s_median": statistics.median(r for _, r in refs),
    }
    return metrics, attempted, errors, problems, extra


def traced(workload, seed):
    """Each trial runs once untraced and once traced, alternating which goes
    first, so that the overhead estimate carries no order effect."""
    from helly_topo.errors import HellyTopoError

    run = workloads.trial_runner(workload)
    run(workloads.WARMUP_SEED)
    n = workload.trace_trials
    spans = tracing.Tracer()
    walls = {False: 0.0, True: 0.0}
    texts = {False: [], True: []}
    plain_reports, errors, satisfied = [], 0, 0
    for trial in range(n):
        s = workloads.sweep_seed(seed, trial)
        for with_spans in ((False, True) if trial % 2 == 0 else (True, False)):
            with spans if with_spans else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    report, error = (spans.run_trial(trial, run, s) if with_spans else run(s)), None
                except HellyTopoError as exc:
                    report, error = None, f"error: {exc!r}\n"
                walls[with_spans] += time.perf_counter() - start
            texts[with_spans].append(error or workloads.report_text(report))
            if with_spans:
                continue
            if report is None:
                errors += 1
            else:
                plain_reports.append(report)
                satisfied += report.hypotheses_satisfied
    problems = gate_problems(workload, run, seed, plain_reports,
                             sum(r.conclusion_violated for r in plain_reports))
    if texts[False] != texts[True]:
        problems.append("traced reports differ from untraced reports")
    metrics = tracing.layer_metrics(
        spans, trials=n, satisfied=satisfied, errors=errors, overhead_s=walls[True] - walls[False],
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    spans.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.json"))
    return metrics, n, errors, problems, {"traced_trials": n}


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; one combined result
    whose metric names are prefixed with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            return done.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        workloads.import_package()
    except workloads.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.chdir(workloads.ROOT)  # the CLI corpus names its inputs relative to the root
    prov = provenance_start()
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, attempted, failed, problems, extra = traced(workload, args.seed)
        else:
            metrics, attempted, failed, problems, extra = end_to_end(workload, args.seed, args.seconds)
    except TooFewSamples as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    provenance_end(prov)
    if prov["overloaded"]:
        print("perfbench: warning: 1-minute load average exceeded nproc", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": prov, **extra, "problems": problems}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**detail, "metrics": metrics}, fh, indent=2, sort_keys=True)
    print(json.dumps(detail, sort_keys=True))
    for name, m in metrics.items():
        raw = extra.get("raw_wall_clock", {}).get(name)
        note = "" if raw is None else f"  (raw wall clock {raw:.6g})"
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        print(f"{args.workload} error_rate = {extra['error_rate']['value']:.6g} ratio")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
