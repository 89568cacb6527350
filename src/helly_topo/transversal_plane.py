"""The transversal statements: lemmas 3.1.1-3.1.3 and theorem 3.2.1 over
families of open convex polygons in the plane.

Each statement is a row of TRANSVERSALS, the lemma rows data for one lemma
verifier, and `verify_transversal(tag, family)` evaluates a row.  A
thm-321 verdict counts components with the pair-mask kernel alone, so a
thm-321 sweep builds no envelope profile; a verdict builds the whole
family's profile only when its witness is read, and checks it against the
kernel, and lists its checks only when they are read.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .envelope import ComponentSummary, components, transversal_profile
from .errors import ContractViolation, InvariantViolation, ValidationError
from .polygon_draws import random_convex_polygon, random_disjoint_pair, random_stabbed_family
from .sweeps import SweepReport, read_members, read_text, tally_sweep, theorem_row
from .transversal_kernel import (
    ConvexPolygon, PolygonFamily, _subfamily_counts, disjointness_class, polygons_disjoint,
)


@dataclass(frozen=True)
class LemmaVerdict:
    """A lemma has no hypotheses beyond its input's shape, which the
    verifier checks, so its conclusion is whether it passed."""

    lemma: str
    passed: bool
    expected: dict
    summary: ComponentSummary

    hypotheses_hold = True

    @property
    def conclusion_holds(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "passed": self.passed,
            "expected": self.expected,
            "observed": self.summary.to_dict(),
        }


def _lemma(tag: str, expected: dict, holds, disjoint_pair=None):
    """A lemma row's verifier: it passes when ``holds`` accepts the
    family's component summary.  ``disjoint_pair``, if given, is the error
    text for a family whose first two members' interiors intersect."""

    def verify(family: PolygonFamily) -> LemmaVerdict:
        if disjoint_pair is not None and not polygons_disjoint(*family.members[:2]):
            raise ContractViolation(disjoint_pair)
        summary = components(transversal_profile(family))
        return LemmaVerdict(tag, holds(summary), dict(expected), summary)

    return verify


# thm-321's hypothesis blocks, in the order its verdict reports them:
# (check name, subfamily size, test of each such subfamily's component count)
_THM321_BLOCKS = (
    ("size5_nonempty", 5, lambda count: count >= 1),
    ("size4_connected", 4, lambda count: count == 1),
)


@functools.lru_cache(maxsize=16)
def _thm321_checks(m: int) -> tuple:
    """The plan of an m-member thm-321 verify, (rows, pair lists): the
    (check name, subset, test) of every subfamily that `_THM321_BLOCKS`
    checks, each block in combinations order, and the index pairs of each
    such subfamily and then of the whole family, the lists whose pair masks
    `_subfamily_counts` ANDs."""
    rows = tuple((check, subset, holds) for check, size, holds in _THM321_BLOCKS
                 for subset in itertools.combinations(range(m), size))
    subsets = [subset for _, subset, _ in rows] + [range(m)]
    return rows, tuple(tuple(itertools.combinations(subset, 2)) for subset in subsets)


@dataclass(frozen=True)
class TransversalVerdict:
    """``counts`` holds the quotient component counts from the pair-mask
    kernel: every subfamily's that a block of `_THM321_BLOCKS` checks, in
    `_thm321_checks` order, then the whole family's.  ``disjointness`` is
    the family's `disjointness_class`.  ``checks`` lists them as the
    verdict reports them; ``witness`` recomputes the whole family's count
    from its own envelope profile and checks the two against each other."""

    theorem: str
    disjointness: str
    counts: tuple
    hypotheses_hold: bool
    family: PolygonFamily

    @property
    def component_count(self) -> int:
        return self.counts[-1]

    @property
    def conclusion_holds(self) -> bool:
        return self.counts[-1] >= 1

    @functools.cached_property
    def checks(self) -> tuple:
        rows = zip(_thm321_checks(self.family.size)[0], self.counts)
        return (
            (("check", "semipairwise_disjoint"), ("observed", self.disjointness),
             ("pass", self.disjointness != "neither")),
            *((("check", check), ("indices", list(subset)), ("observed", count),
               ("pass", holds(count))) for (check, subset, holds), count in rows),
        )

    @functools.cached_property
    def witness(self) -> dict:
        total = components(transversal_profile(self.family))
        if total.component_count != self.component_count:
            raise InvariantViolation(
                f"the envelope profile gives {total.component_count} components "
                f"of the whole family, the pair-mask kernel {self.component_count}"
            )
        return total.to_dict()

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses_hold": self.hypotheses_hold,
            "conclusion_holds": self.conclusion_holds,
            "checks": [dict(c) for c in self.checks],
            "witness": self.witness,
        }


def verify_theorem_321(family: PolygonFamily) -> TransversalVerdict:
    """Semipairwise disjoint family of >= 6 open convex polygons: if every
    size-5 subfamily has a transversal and every size-4 subfamily has a
    connected transversal space, the whole family has a transversal."""
    m = family.size
    if m < 6:
        raise ContractViolation("the theorem needs a family of at least 6 members")
    kernel = family._kernel  # built before the classification reads it
    cls = disjointness_class(family)
    rows, pair_lists = _thm321_checks(m)
    # the whole family last: Helly's theorem on the line makes its feasible
    # set the AND of all pair masks
    counts = _subfamily_counts(kernel, pair_lists)
    hypotheses_hold = cls != "neither" and all(
        holds(count) for (_, _, holds), count in zip(rows, counts))
    return TransversalVerdict("thm-321", cls, tuple(counts), hypotheses_hold, family)


# ---------------------------------------------------------------------------
# file ingestion

def parse_polygon_family(text: str) -> PolygonFamily:
    """Parse the JSON polygon family format.

    Schema: {"members": [{"label": str, "vertices": [[x, y], ...]}, ...]}
    with CCW vertices, each a two-element list; coordinates may be numbers,
    'p/q' strings, or exact decimal strings.  `sweeps.read_members` checks
    the envelope and `ConvexPolygon` each member's vertices.
    """
    members, pairs = [], read_members(text, "polygon", "vertices")[1]
    for label, vertices in pairs:
        try:
            members.append(ConvexPolygon(vertices))
        except ValidationError as exc:
            raise ValidationError(f"member {label!r}: {exc}") from exc
    return PolygonFamily(tuple(members), tuple(label for label, _ in pairs))


def load_polygon_family(path) -> PolygonFamily:
    return parse_polygon_family(read_text(path, "polygon"))


# ---------------------------------------------------------------------------
# the transversal table and its two readers

def _sweep_polygon(rng, spread) -> ConvexPolygon:
    center = (rng.uniform(-spread, spread), rng.uniform(-spread, spread))
    return random_convex_polygon(rng, center, rng.uniform(0.5, 2.0), rng.randint(3, 16))


# tag -> ((member count, error text) or None, verify(family), draw(rng, trial_seed, m)).
# A row without a member count checks the family's size itself, and its
# sweep draws m members.  A lemma row's verifier is `_lemma` of its data.
# Verifiers and generators are looked up by module-global name at call
# time, so a rebinding of those names (as by a tracer) is seen.
TRANSVERSALS = {
    # one polygon: every direction admits a transversal, a circle-like space
    "lemma-311": (
        (1, "lemma-311 needs a family with exactly 1 member"),
        _lemma("lemma-311", {"b0": 0, "b1": 1}, lambda s: s.full_circle),
        lambda rng, ts, m: PolygonFamily((_sweep_polygon(rng, 2),)),
    ),
    # a separated pair: one component, not the full circle, so a point
    "lemma-312": (
        (2, "lemma-312 needs a family with exactly 2 members"),
        _lemma("lemma-312", {"b0": 0, "b1": 0},
               lambda s: s.component_count == 1 and not s.full_circle,
               "pair is not separated: the interiors intersect"),
        lambda rng, ts, m: PolygonFamily(random_disjoint_pair(ts)),
    ),
    # a disjoint pair plus any third polygon: never the full circle
    "lemma-313": (
        (3, "lemma-313 needs a family with exactly 3 members "
            "(the first two form the disjoint pair)"),
        _lemma("lemma-313", {"b1": 0}, lambda s: not s.full_circle,
               "designated pair is not disjoint"),
        lambda rng, ts, m: PolygonFamily(random_disjoint_pair(ts) + (_sweep_polygon(rng, 6),)),
    ),
    "thm-321": (
        None,
        lambda fam: verify_theorem_321(fam),
        lambda rng, ts, m: random_stabbed_family(m, ts, jitter=rng.uniform(0.05, 1.2)),
    ),
}


def verify_transversal(tag: str, family: PolygonFamily):
    """The transversal entry point, the counterpart of `run_verifier`: a
    TRANSVERSALS row's `LemmaVerdict` or `TransversalVerdict` of a family,
    both with `hypotheses_hold`, `conclusion_holds` and `to_dict()`."""
    arity, verify, _ = theorem_row(TRANSVERSALS, tag)
    if arity is not None and family.size != arity[0]:
        raise ValidationError(arity[1])
    return verify(family)


def sweep_transversal(theorem: str, trials: int, seed: int = 0, m=None) -> SweepReport:
    """Randomized sweep over the transversal lemmas and the six-member
    transversal theorem; zero conclusion violations expected always.

    ``m`` is the family size of a thm-321 trial (6 when None); a lemma row
    draws its own fixed number of members and takes no ``m``."""
    arity, verify, draw = theorem_row(TRANSVERSALS, theorem)
    if arity is None:
        m = 6 if m is None else m
    elif m is not None:
        raise ContractViolation(f"{theorem} has a fixed family size; m does not apply")

    def trial(ts):
        return verify(draw(random.Random(f"transversal-sweep:{theorem}:{ts}"), ts, m))

    return tally_sweep(theorem, trials, seed, {} if arity else {"m": m}, trial)
