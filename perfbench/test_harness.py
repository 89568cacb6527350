"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

import calibration
import gate
import run as bench
import tracer as tracing
import workloads

workloads.import_package()

from helly_topo import complex_core, homology  # noqa: E402
from helly_topo.complex_core import build_complex  # noqa: E402


def _bindings():
    """Every package-level name bound to a function the tracer wraps."""
    wrapped = [getattr(tracing._module(mod), attr)
               for _name, mod, attr in tracing.SPANNED + tracing.COUNTED]
    ids = {id(f) for f in wrapped}
    return {
        (mod.__name__, attr): value
        for mod in tracing._package_modules()
        for attr, value in vars(mod).items()
        if id(value) in ids
    }


def test_wrappers_installed_and_restored():
    before = _bindings()
    # helly_engine looks these up under its own names; they must be wrapped there
    assert ("helly_topo.helly_engine", "union_members") in before
    assert ("helly_topo.helly_engine", "betti_number") in before
    t = tracing.Tracer()
    with pytest.raises(KeyError), t:
        for (module, attr), original in before.items():
            assert getattr(sys.modules[module], attr) is not original
        raise KeyError("leave the block by an exception")
    assert _bindings() == before
    assert not t._patches


def test_traced_reports_match_untraced_and_count_calls():
    wl = workloads.WORKLOADS["helly-intersect"]
    run = workloads.trial_runner(wl)
    seeds = [workloads.sweep_seed(5, t) for t in range(3)]
    plain = [workloads.report_text(run(s)) for s in seeds]
    t = tracing.Tracer()
    with t:
        traced = [workloads.report_text(t.run_trial(i, run, s)) for i, s in enumerate(seeds)]
    assert traced == plain
    # m=5, d=2: 5 + 10 + 10 ledger intersections plus the total one, per trial
    assert t.counts["complex_core.intersect.calls"] == 3 * 26
    assert sum(1 for span in t.spans if span[0] == tracing.DRIVER) == 3
    assert all(span[2] is not None and span[4] is not None for span in t.spans)


def test_self_time_arithmetic_on_synthetic_spans():
    spans = [
        ["driver", 0.0, 10.0, None, 0],
        ["helly_engine.verify", 1.0, 5.0, 0, 0],
        ["homology.betti_number", 2.0, 3.0, 1, 0],
        ["homology.betti_number", 3.5, 4.0, 1, 0],
        ["tracer", 5.0, 5.5, 0, 0],
        ["driver", 20.0, 21.0, None, 1],
    ]
    selfs = tracing.self_times(spans)
    assert selfs["driver"] == pytest.approx(10.0 - 4.0 - 0.5 + 1.0)
    assert selfs["helly_engine.verify"] == pytest.approx(4.0 - 1.0 - 0.5)
    assert selfs["homology.betti_number"] == pytest.approx(1.5)
    assert selfs["tracer"] == pytest.approx(0.5)
    # self times partition the root spans' wall time
    assert sum(selfs.values()) == pytest.approx(11.0)


def test_boundary_cells_counts_rows_times_columns():
    triangle = complex_core.Subcomplex(build_complex([[0, 1, 2]]),
                                       build_complex([[0, 1, 2]]).simplices)
    # 3 vertices, 3 edges, 1 triangle
    assert tracing.boundary_cells(triangle) == 3 * 3 + 3 * 1
    assert tracing.boundary_cells(triangle, 1) == 3 * 3 + 3 * 1
    assert tracing.boundary_cells(triangle, 2) == 3 * 1
    assert tracing.boundary_cells(triangle, 0) == 0
    assert homology.betti_number(triangle, 1) == 0


def test_golden_digest_passes_and_corruption_is_caught():
    golden = gate.load_digests()
    wl = workloads.WORKLOADS["helly-intersect"]
    run = workloads.trial_runner(wl)
    seed = workloads.PRIMARY_SEED
    texts = [workloads.report_text(run(workloads.sweep_seed(seed, t)))
             for t in range(gate.GATE_TRIALS)]
    assert gate.check_digest(golden, wl.name, seed, gate.GATE_TRIALS, texts) == []
    corrupted = texts[:-1] + [texts[-1].replace('"total": 1', '"total": 2')]
    assert corrupted != texts
    assert gate.check_digest(golden, wl.name, seed, gate.GATE_TRIALS, corrupted)
    bad_golden = json.loads(json.dumps(golden))
    bad_golden[wl.name][str(seed)][str(gate.GATE_TRIALS)] = "0" * 64
    assert gate.check_digest(bad_golden, wl.name, seed, gate.GATE_TRIALS, texts)
    assert gate.check_digest(golden, wl.name, 12345, gate.GATE_TRIALS, texts)


def test_p90_needs_one_hundred_samples():
    with pytest.raises(bench.TooFewSamples):
        bench.percentile([float(i) for i in range(99)], 90)
    assert bench.percentile([float(i) for i in range(100)], 90) == pytest.approx(89.9)


def test_calibration_scales_by_the_bracketing_reference_runs():
    nominal = calibration.NOMINAL_S
    latencies = [0.010, 0.020, 0.030]
    # one reference run before trial 0, one before trial 2, one after the end
    refs = [(0, nominal), (2, 3 * nominal), (3, nominal)]
    assert calibration.calibrate(latencies, refs) == pytest.approx(
        [0.010 / 2, 0.020 / 2, 0.030 / 2])
    with pytest.raises(ValueError):
        calibration.calibrate(latencies, refs[:-1])
    assert calibration.reference_seconds() > 0


def test_benchmark_json_names_match_the_harness():
    path = os.path.join(workloads.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER_METRICS)
