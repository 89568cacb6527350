"""The four sweep workloads and how one trial of each is run.

A trial is one call to the public sweep entry point with ``trials=1`` and
the trial's own sweep seed, so a trial costs what a ``helly-topo sweep``
user pays per family.  Every workload draws its families from that seed
alone: the benchmark's ``--seed`` picks the sequence of sweep seeds.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Trial i of a run with --seed s sweeps with seed s * SEED_STRIDE + i, so two
# runs share no family unless they share the benchmark seed.
SEED_STRIDE = 1_000_000

# The seed whose golden digests every run checks, and the holdout seed a
# later speed-up claim must also hold on (recorded with its own digests).
PRIMARY_SEED = 1
HOLDOUT_SEED = 97

# Sweep seed of the untimed warm-up trial, the same for every run so that
# set-up time does not depend on --seed; no run with --seed >= 0 measures it.
WARMUP_SEED = -1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # "engine" calls helly_engine.sweep, "transversal" calls
    # transversal_plane.sweep_transversal.
    entry: str
    theorem: str
    kwargs: dict
    # Trials in a traced run: fixed, so that its counts repeat exactly.
    trace_trials: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="breen-union",
            why="breen grid 12 m=4 growth 120 GF(2): large unions load complex_core "
            "union validation and GF(2) rank (acceptance criterion 4/breen)",
            entry="engine",
            theorem="breen",
            kwargs={"grid_n": 12, "m": 4, "growth_steps": 120, "d": 2, "field": "gf2"},
            trace_trials=300,
        ),
        Workload(
            name="helly-intersect",
            why="helly grid 12 m=5 growth 12 GF(2): 25 ledger entries over tiny "
            "intersections, dominated by the ledger loop's dimension rescans",
            entry="engine",
            theorem="helly",
            kwargs={"grid_n": 12, "m": 5, "growth_steps": 12, "d": 2, "field": "gf2"},
            trace_trials=2000,
        ),
        Workload(
            name="thm321-transversal",
            why="thm-321 m=6 with the sweep's own jitter: envelope profiles of every "
            "size-4/5 subfamily, no simplicial code (acceptance criterion 9)",
            entry="transversal",
            theorem="thm-321",
            kwargs={"m": 6},
            trace_trials=70,
        ),
        Workload(
            name="propa-rational",
            why="prop-a lambda=1 grid 12 m=2 growth 40 over Q: the sweep --field q "
            "path, where fraction-free Bareiss rank does almost all the work",
            entry="engine",
            theorem="prop-a",
            kwargs={"grid_n": 12, "m": 2, "growth_steps": 40, "lam": 1, "field": "q"},
            trace_trials=100,
        ),
    )
}


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/helly_topo`` to benchmark."""


def import_package():
    """Import helly_topo from this checkout's ``src``, never from elsewhere."""
    package_dir = os.path.join(SRC, "helly_topo")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SourceMissing(f"no package source at {package_dir}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import helly_topo

    if os.path.dirname(os.path.abspath(helly_topo.__file__)) != package_dir:
        raise SourceMissing(f"helly_topo was imported from {helly_topo.__file__}, not {package_dir}")
    return helly_topo


def sweep_seed(seed: int, trial: int) -> int:
    return seed * SEED_STRIDE + trial


def trial_runner(workload: Workload):
    """Return ``run(sweep_seed) -> report``, calling the package's public
    sweep functions through their modules so that tracing wrappers apply."""
    from helly_topo import helly_engine, transversal_plane
    from helly_topo.homology import CoefficientField

    kw = dict(workload.kwargs)
    if workload.entry == "engine":
        kw["field"] = CoefficientField.from_tag(kw["field"])

        def run(s):
            return helly_engine.sweep(workload.theorem, 1, seed=s, **kw)
    else:

        def run(s):
            return transversal_plane.sweep_transversal(workload.theorem, 1, seed=s, **kw)

    return run


def report_text(report) -> str:
    """A trial's report exactly as ``helly-topo sweep`` writes it."""
    import json

    from helly_topo import cli

    envelope = cli._envelope("sweep", {"theorem": report.theorem}, report.to_dict())
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"
