"""What the simplicial and transversal halves share, so neither imports
the other: the member-file reader, a theorem table's row lookup and the
sweep tally."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ContractViolation, ValidationError


def read_text(path, kind: str) -> str:
    """The text of a ``kind`` file, which must be valid UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{kind} file is not valid UTF-8: {exc}") from exc


def read_members(text: str, kind: str, payload: str, keys=()) -> tuple:
    """The decoded JSON object of a ``kind`` file and its (label, payload)
    pairs.  Any departure from the envelope, an object holding ``keys`` and
    a nonempty ``members`` list of ``{"label": str, payload: ...}`` objects,
    is a `ValidationError`; the values are the caller's to check."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{kind} file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{kind} file must be a JSON object")
    for key in (*keys, "members"):
        if key not in data:
            raise ValidationError(f"{kind} file is missing the {key!r} key")
    spec = data["members"]
    if not isinstance(spec, list):
        raise ValidationError("members must be a list")
    if not spec:
        raise ValidationError(f"{kind} file declares zero members")
    pairs = []
    for pos, entry in enumerate(spec):
        if not isinstance(entry, dict) or "label" not in entry or payload not in entry:
            raise ValidationError(f"member #{pos} must be an object with 'label' and {payload!r}")
        if not isinstance(entry["label"], str):
            raise ValidationError(f"member #{pos} label must be a string")
        pairs.append((entry["label"], entry[payload]))
    return data, pairs


def theorem_row(table: dict, tag: str):
    """The row of ``table`` under ``tag``; an unknown tag is a contract error."""
    if tag not in table:
        raise ContractViolation(f"unknown theorem tag {tag!r}")
    return table[tag]


@dataclass(frozen=True)
class SweepReport:
    """Tallies of one sweep.  ``echo`` holds the sweep's own report keys,
    which `to_dict` appends after the counts."""

    theorem: str
    trials: int
    seed: int
    params: dict
    hypotheses_satisfied: int
    conclusion_held: int
    conclusion_violated: int
    hypotheses_failed_conclusion_failed: int
    echo: dict

    def to_dict(self) -> dict:
        return {
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
            **self.echo,
        }


def tally_sweep(theorem: str, trials: int, seed: int, params: dict, trial,
                echo=dict) -> SweepReport:
    """The loop of `helly_engine.sweep` and `transversal_plane.sweep_transversal`:
    `trial(trial_seed)` checks one random instance and returns its verdict,
    of which the tally reads `hypotheses_hold` and `conclusion_holds`.
    `echo()`, called once after the last trial, gives the report's
    ``echo``.

    `conclusion_violated` counts trials where the hypotheses held but the
    conclusion failed; any nonzero value contradicts a theorem and means an
    implementation bug.  `hypotheses_failed_conclusion_failed` witnesses the
    checks are not vacuous.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    satisfied = held = violated = failed_failed = 0
    for t in range(trials):
        # flat integer derivation keeps trials schedule-independent
        verdict = trial(seed * 1_000_003 + t)
        if verdict.hypotheses_hold:
            satisfied += 1
            if verdict.conclusion_holds:
                held += 1
            else:
                violated += 1
        elif not verdict.conclusion_holds:
            failed_failed += 1
    return SweepReport(theorem, trials, seed, params, satisfied, held, violated,
                       failed_failed, echo())
