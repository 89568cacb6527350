"""What the simplicial and transversal halves share, so neither imports
the other: a theorem table's row lookup and the sweep tally."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation


def theorem_row(table: dict, tag: str):
    """The row of ``table`` under ``tag``; an unknown tag is a contract error."""
    if tag not in table:
        raise ContractViolation(f"unknown theorem tag {tag!r}")
    return table[tag]


@dataclass(frozen=True)
class SweepReport:
    """Tallies of one sweep.  The transversal theorems have no coefficient
    field, generator or hypothesis ledger: ``field`` and ``generator`` are
    None and the report leaves them and the failure histogram out."""

    theorem: str
    field: object  # CoefficientField, or None
    trials: int
    seed: int
    generator: object  # dict, or None
    params: dict
    hypotheses_satisfied: int
    conclusion_held: int
    conclusion_violated: int
    hypotheses_failed_conclusion_failed: int
    failure_histogram: tuple  # ((j, degree, count), ...) sorted

    def to_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "trials": self.trials,
            "seed": self.seed,
            "params": self.params,
            "counts": {
                "total": self.trials,
                "hypotheses_satisfied": self.hypotheses_satisfied,
                "conclusion_held": self.conclusion_held,
                "conclusion_violated": self.conclusion_violated,
                "hypotheses_failed_conclusion_failed": self.hypotheses_failed_conclusion_failed,
            },
        }
        if self.field is not None:
            out["field"] = self.field.value
            out["generator"] = self.generator
            out["hypothesis_failure_histogram"] = [
                {"j": j, "degree": degree, "count": count}
                for (j, degree, count) in self.failure_histogram
            ]
        return out


def tally_sweep(theorem: str, trials: int, seed: int, params: dict, trial,
                field=None, generator: dict = None) -> SweepReport:
    """The loop of `helly_engine.sweep` and `transversal_plane.sweep_transversal`:
    `trial(trial_seed)` checks one random instance and returns
    (hypotheses_hold, conclusion_holds, failed ledger entries).

    `conclusion_violated` counts trials where the hypotheses held but the
    conclusion failed; any nonzero value contradicts a theorem and means an
    implementation bug.  `hypotheses_failed_conclusion_failed` witnesses the
    checks are not vacuous.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    satisfied = held = violated = failed_failed = 0
    histogram = {}
    for t in range(trials):
        # flat integer derivation keeps trials schedule-independent
        hyp, concl, failed = trial(seed * 1_000_003 + t)
        if hyp:
            satisfied += 1
            if concl:
                held += 1
            else:
                violated += 1
        else:
            if not concl:
                failed_failed += 1
            for entry in failed:
                key = (entry.j, entry.degree)
                histogram[key] = histogram.get(key, 0) + 1
    return SweepReport(
        theorem=theorem,
        field=field,
        trials=trials,
        seed=seed,
        generator=generator,
        params=params,
        hypotheses_satisfied=satisfied,
        conclusion_held=held,
        conclusion_violated=violated,
        hypotheses_failed_conclusion_failed=failed_failed,
        failure_histogram=tuple(sorted((j, deg, c) for (j, deg), c in histogram.items())),
    )
