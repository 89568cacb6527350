"""Hypothesis/conclusion verifiers for homological Helly-type criteria.

Every criterion is one row of THEOREMS, keyed by its tag, and
`run_verifier(tag, family, field, d=, lam=)` is the one entry point: it
checks every required vanishing condition on the relevant subfamilies (the
hypothesis ledger), then the asserted conclusion by direct simplex-set
computation.  A verdict where the hypotheses hold but the conclusion fails
would contradict a theorem and is surfaced loudly by callers; the sweep
harness tallies exactly that.

Degree conventions: a required vanishing at degree -1 means nonemptiness;
degrees below -1 or above the ambient dimension are recorded as vacuous.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .complex_core import (
    SubcomplexFamily,
    Subcomplex,
    grid_complex,
    intersect_members,
    union_members,
)
from .errors import ContractViolation
from .homology import GF2, CoefficientField, _top_boundary_injective, betti_number, reduced_betti


@dataclass(frozen=True, init=False)
class LedgerEntry:
    """One required vanishing condition and its observed outcome."""

    indices: tuple
    kind: str  # "intersection" | "union"
    degree: int
    observed: object  # Betti number (degree -1: 0 iff nonempty), None if vacuous
    status: str  # "pass" | "fail" | "vacuous"

    def __init__(self, indices, kind, degree, observed, status):
        # one dict update instead of five frozen-dataclass setattr calls
        self.__dict__.update(indices=indices, kind=kind, degree=degree,
                             observed=observed, status=status)

    @property
    def j(self) -> int:
        return len(self.indices)

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "j": self.j,
            "kind": self.kind,
            "degree": self.degree,
            "observed": self.observed,
            "status": self.status,
        }


@dataclass(frozen=True)
class HypothesisLedger:
    entries: tuple
    params: dict  # the theorem's parameter echo, see theorem_params

    @property
    def all_satisfied(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def failed_entries(self):
        return [e for e in self.entries if e.status == "fail"]

    def to_dict(self) -> dict:
        return {"entries": [e.to_dict() for e in self.entries], **self.params}


@dataclass(frozen=True)
class Verdict:
    theorem: str
    field: CoefficientField
    ledger: HypothesisLedger
    hypotheses_hold: bool
    conclusion_holds: bool
    witness: dict

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "field": self.field.value,
            "hypotheses_hold": self.hypotheses_hold,
            "conclusion_holds": self.conclusion_holds,
            "ledger": self.ledger.to_dict(),
            "witness": self.witness,
        }


@dataclass(frozen=True)
class Theorem:
    """One row of THEOREMS.

    ``param`` names the integer parameter p ("lambda", "d" or None), and
    ``min_size(p)`` is the least family size the theorem speaks about.  Each
    hypothesis block (kind, sizes(m, p), degree(m, j, p)) requires the
    intersection or union of every size-j subfamily, j in sizes, to have
    vanishing homology in that degree.  ``conclusion`` is "union" or
    "intersection" vanishing in degree conclusion_degree(m, p) for the
    whole family, "acyclic" (nonempty, acyclic intersection) or
    "nonempty" (a common point).
    """

    param: object
    min_size: object
    hypotheses: tuple
    conclusion: str
    conclusion_degree: object = None


def _every_size(m, p):
    return range(1, m + 1)


def _sizes_to_d_plus_1(m, p):
    return range(1, min(p + 1, m) + 1)


THEOREMS = {
    "prop-a": Theorem(  # union-vanishing from intersection-vanishing
        "lambda", lambda p: 2,
        (("intersection", _every_size, lambda m, j, p: m - 1 - j + p),),
        "union", lambda m, p: m - 2 + p,
    ),
    "thm-b": Theorem(  # intersection-vanishing from one union condition
        "lambda", lambda p: 2,
        (
            ("union", lambda m, p: (m,), lambda m, j, p: m - 2 + p),
            ("intersection", lambda m, p: range(1, m), lambda m, j, p: m - 2 - j + p),
        ),
        "intersection", lambda m, p: p - 1,
    ),
    "helly": Theorem(  # topological Helly: a nonempty acyclic intersection
        "d", lambda p: p + 1,  # the hypotheses need a size-(d+1) subfamily
        (("intersection", _sizes_to_d_plus_1, lambda m, j, p: p - j),),
        "acyclic",
    ),
    "sigma": Theorem(  # a common point from union-vanishing at every size
        None, lambda p: 2,
        (("union", _every_size, lambda m, j, p: j - 2),),
        "nonempty",
    ),
    "breen": Theorem(  # a common point from union-vanishing up to size d+1
        "d", lambda p: 2,
        (("union", _sizes_to_d_plus_1, lambda m, j, p: j - 2),),
        "nonempty",
    ),
}


def _theorem(tag: str) -> Theorem:
    if tag not in THEOREMS:
        raise ContractViolation(f"unknown theorem tag {tag!r}")
    return THEOREMS[tag]


def theorem_params(tag: str, d: int, lam: int) -> dict:
    """The parameter echo of a theorem: {"lambda": lam}, {"d": d} or {}."""
    param = _theorem(tag).param
    if param is None:
        return {}
    return {param: lam if param == "lambda" else d}


def run_verifier(theorem: str, family: SubcomplexFamily, field: CoefficientField = GF2,
                 d: int = 2, lam: int = 0) -> Verdict:
    """Evaluate a THEOREMS row: the hypothesis ledger, one entry per
    (subfamily, degree) pair in block order, then the conclusion."""
    row = _theorem(theorem)
    dim = family.ambient.dimension
    if row.param == "d":
        declared = family.ambient.declared_embedding_dim
        if d <= 0:
            raise ContractViolation("d must be positive")
        if declared > d:
            raise ContractViolation(
                f"ambient declared embedding dimension {declared} exceeds d={d}"
            )
        # a subcomplex's top cycles are the ambient's: the declaration holds
        # at the ambient's own dimension iff the ambient has none
        if declared == dim and not _top_boundary_injective(family.ambient, field):
            raise ContractViolation(
                f"ambient declared embedding dimension {declared} is false: the ambient "
                f"has a nonzero {dim}-cycle over {field.value}"
            )
    m = family.size
    p = lam if row.param == "lambda" else d
    if m < row.min_size(p):
        raise ContractViolation(f"family size must be >= {row.min_size(p)}")
    if row.param == "lambda" and lam < 0:
        raise ContractViolation("lambda must be >= 0")
    entries = []
    for kind, sizes, degree_of in row.hypotheses:
        combine = intersect_members if kind == "intersection" else union_members
        for j in sizes(m, p):
            degree = degree_of(m, j, p)
            vacuous = degree < -1 or degree > dim
            for combo in itertools.combinations(range(m), j):
                if vacuous:
                    entries.append(LedgerEntry(combo, kind, degree, None, "vacuous"))
                else:
                    observed = betti_number(combine(family, combo), degree, field)
                    status = "pass" if observed == 0 else "fail"
                    entries.append(LedgerEntry(combo, kind, degree, observed, status))
    ledger = HypothesisLedger(tuple(entries), theorem_params(theorem, d, lam))
    if row.conclusion in ("union", "intersection"):
        degree = row.conclusion_degree(m, p)
        combine = intersect_members if row.conclusion == "intersection" else union_members
        observed = betti_number(combine(family, range(m)), degree, field)
        holds = observed == 0
        witness = {"kind": row.conclusion, "degree": degree, "observed": observed}
    else:
        inter = intersect_members(family, range(m))
        if row.conclusion == "acyclic":
            # nonempty with b_k = 0 for 0 <= k <= dim, read off one Betti vector
            betti = reduced_betti(inter, field)
            holds = betti.nonempty and all(betti.betti_at(k) == 0 for k in range(dim + 1))
            witness = {"kind": "intersection", "betti": betti.to_dict()}
        else:
            holds = not inter.is_empty
            witness = {"kind": "intersection", "nonempty": holds,
                       "size": inter.mask.bit_count()}
    return Verdict(theorem, field, ledger, ledger.all_satisfied, holds, witness)


@lru_cache(maxsize=8)
def _grid_setup(n):
    """The grid ambient, its triangles' closure masks in sorted-triangle
    order, and each triangle's edge neighbours as sorted positions in it."""
    ambient = grid_complex(n)
    index = ambient._index
    first = index.n_vertices + len(index.edges)  # vertex, edge, then triangle bits
    tris = index.order[first:]
    edge_to_tris = {}
    for i, t in enumerate(tris):
        for e in itertools.combinations(t, 2):
            edge_to_tris.setdefault(e, []).append(i)
    adjacency = []
    for i, t in enumerate(tris):
        nbs = set()
        for e in itertools.combinations(t, 2):
            nbs.update(edge_to_tris[e])
        nbs.discard(i)
        adjacency.append(sorted(nbs))
    return ambient, index.closures[first:], adjacency


def random_family(grid_n: int, m: int, growth_steps: int, seed: int) -> SubcomplexFamily:
    """Random blob family on the triangulated grid, deterministic per seed.

    Each member is the face closure of an edge-connected triangle set grown
    by `growth_steps` accretions from a random start triangle (each step
    adds one uniformly chosen frontier triangle), so its one part is its
    vertex set.
    """
    if grid_n < 2:
        raise ContractViolation("grid_n must be >= 2")
    if m < 1:
        raise ContractViolation("m must be >= 1")
    if growth_steps < 0:
        raise ContractViolation("growth_steps must be >= 0")
    ambient, closures, adjacency = _grid_setup(grid_n)
    rng = random.Random(f"random-family:{grid_n}:{m}:{growth_steps}:{seed}")
    vertices = ambient._index.dim_masks[0]
    members = []
    # Triangles are positions in sorted order and the frontier list is kept
    # sorted by insertion, so each draw indexes the frontier in sorted
    # triangle order, as rng.choice(sorted(...)) would.  Every draw, the
    # start triangle's included, is randrange(n)'s own rejection loop over
    # getrandbits(n.bit_length()), the draw rng.choice makes, inlined to
    # skip its argument handling: it consumes the same bits and returns the
    # same integer.  test_random_family_draws_are_pinned pins the draws, and
    # test_random_family_matches_the_randrange_reference checks them against
    # a randrange copy of this loop.
    getrandbits = rng.getrandbits
    insort = bisect.insort
    n_tris = len(closures)
    k_tris = n_tris.bit_length()
    for _ in range(m):
        start = getrandbits(k_tris)
        while start >= n_tris:
            start = getrandbits(k_tris)
        mask = closures[start]
        frontier = list(adjacency[start])
        pop = frontier.pop
        seen = {start, *frontier}
        add = seen.add
        for _ in range(growth_steps):
            n = len(frontier)
            if not n:
                break
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            tri = pop(r)
            mask |= closures[tri]
            for nb in adjacency[tri]:
                if nb not in seen:
                    add(nb)
                    insort(frontier, nb)
        members.append(Subcomplex._from_mask(ambient, mask, (mask & vertices,)))
    labels = tuple(f"A{i + 1}" for i in range(m))
    return SubcomplexFamily(ambient, tuple(members), labels)


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
                field: CoefficientField = None, generator: dict = None) -> SweepReport:
    """The loop of `sweep` and `sweep_transversal`: `trial(trial_seed)` checks
    one random instance and returns (hypotheses_hold, conclusion_holds,
    failed ledger entries).

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


def sweep(theorem: str, trials: int, *, grid_n: int = 12, m: int = 4,
          growth_steps: int = 40, seed: int = 0, field: CoefficientField = GF2,
          d: int = 2, lam: int = 0) -> SweepReport:
    """Tally hypothesis satisfaction and conclusion outcomes over random families."""
    params = theorem_params(theorem, d, lam)

    def trial(trial_seed):
        family = random_family(grid_n, m, growth_steps, trial_seed)
        verdict = run_verifier(theorem, family, field, d=d, lam=lam)
        return verdict.hypotheses_hold, verdict.conclusion_holds, verdict.ledger.failed_entries()

    generator = {"grid_n": grid_n, "m": m, "growth_steps": growth_steps}
    return tally_sweep(theorem, trials, seed, params, trial, field, generator)
