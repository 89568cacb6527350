"""Command-line front end.

JSON reports go to stdout (or --out); a one-line human summary goes to
stderr.  Exit codes: 0 command completed with no theorem violation, 2
hypotheses not satisfied (verdict still emitted), 3 input validation
error, 1 internal error or theorem violation.

Reports are byte-identical for identical argv and input files: keys are
sorted, seeds are echoed, and no timing or host information is embedded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .complex_core import load_family
from .errors import (
    ContractViolation,
    GenerationFailure,
    HellyTopoError,
    MalformedInput,
    ValidationError,
)
from .homology import CoefficientField, reduced_betti
from . import helly_engine as engine
from . import transversal_plane as tp

CONVENTION_NOTE = (
    "open sets are modeled as face-closed subcomplexes of a single ambient "
    "triangulation; polygons are open interiors with rational vertices"
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_HYPOTHESES_FAILED = 2
EXIT_VALIDATION = 3

THEOREM_TAGS = sorted([*engine.THEOREMS, *tp.TRANSVERSALS])

# (dest, flag, default) of the options that only some rows read; the parser
# leaves them None, so that one given to a row that ignores it is an error
ROW_OPTIONS = (
    ("field", "--field", "gf2"),
    ("grid", "--grid", 12),
    ("growth", "--growth", 40),
    ("d", "--d", 2),
    ("lam", "--lambda", 0),
)


def _envelope(command: str, params: dict, result: dict) -> dict:
    return {
        "tool": "helly-topo",
        "version": __version__,
        "command": command,
        "params": params,
        "convention": CONVENTION_NOTE,
        "result": result,
    }


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helly-topo",
        description=(
            "Verify homological Helly-type intersection criteria on simplicial "
            "families and compute transversal-line spaces of planar convex polygons."
        ),
    )
    parser.add_argument("--version", action="version", version=f"helly-topo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("homology", help="reduced Betti vector of one family member")
    p_hom.add_argument("--in", dest="infile", required=True)
    p_hom.add_argument("--member", required=False, help="member label (optional for a single-member family)")
    p_hom.add_argument("--field", choices=["gf2", "q"], default="gf2")
    p_hom.add_argument("--out")
    p_hom.set_defaults(run=_cmd_homology)

    p_ver = sub.add_parser("verify", help="check a theorem's hypotheses and conclusion")
    p_ver.add_argument("theorem", choices=THEOREM_TAGS)
    p_ver.add_argument("--in", dest="infile", required=True)
    p_ver.add_argument("--field", choices=["gf2", "q"])
    p_ver.add_argument("--d", type=int)
    p_ver.add_argument("--lambda", dest="lam", type=int)
    p_ver.add_argument("--out")
    p_ver.set_defaults(run=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="randomized hypothesis/conclusion tallies")
    p_sweep.add_argument("--theorem", required=True, choices=THEOREM_TAGS)
    p_sweep.add_argument("--trials", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--field", choices=["gf2", "q"])
    p_sweep.add_argument("--grid", type=int)
    p_sweep.add_argument("--m", type=int, default=None)
    p_sweep.add_argument("--growth", type=int)
    p_sweep.add_argument("--d", type=int)
    p_sweep.add_argument("--lambda", dest="lam", type=int)
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(run=_cmd_sweep)

    p_tr = sub.add_parser("transversal", help="exact transversal-space computations")
    p_tr.add_argument("action", choices=["profile", "components"])
    p_tr.add_argument("--in", dest="infile", required=True)
    p_tr.add_argument("--resolution", type=int, default=None,
                      help="also run the sampling oracle at this resolution (components only)")
    p_tr.add_argument("--out")
    p_tr.set_defaults(run=_cmd_transversal)
    return parser


def _cmd_homology(args) -> int:
    family = load_family(args.infile)
    if args.member is None:
        if family.size != 1:
            raise ValidationError("--member is required for multi-member families")
        member = family.members[0]
        label = family.labels[0]
    else:
        member = family.member_by_label(args.member)
        label = args.member
    field = CoefficientField.from_tag(args.field)
    bv = reduced_betti(member, field)
    report = _envelope(
        "homology",
        {"in": args.infile, "member": label, "field": args.field},
        bv.to_dict(),
    )
    _emit(report, args.out)
    _say(f"homology of {label}: {bv.to_dict()['betti']} (nonempty={bv.nonempty})")
    return EXIT_OK


def _row_options(args, tag) -> None:
    """Fill in the defaults of ROW_OPTIONS; one that the row ignores but the
    command line gives is an input error.  An engine row reads the field,
    the generator's grid and growth, and its own parameter; a transversal
    row reads none of them."""
    read = set()
    if tag in engine.THEOREMS:
        param = engine.THEOREMS[tag].param
        read = {"field", "grid", "growth", "lam" if param == "lambda" else param}
    for dest, flag, default in ROW_OPTIONS:
        if not hasattr(args, dest):
            continue
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest not in read:
            raise ValidationError(f"{flag} does not apply to {tag}")


def _cmd_verify(args) -> int:
    tag = args.theorem
    _row_options(args, tag)
    params = {"in": args.infile, "theorem": tag, "field": args.field}
    if tag in engine.THEOREMS:
        family = load_family(args.infile)
        field = CoefficientField.from_tag(args.field)
        params.update(engine.theorem_params(tag, args.d, args.lam))
        verdict = engine.run_verifier(tag, family, field, d=args.d, lam=args.lam)
    else:
        verdict = tp.verify_transversal(tag, tp.load_polygon_family(args.infile))
    _emit(_envelope("verify", params, verdict.to_dict()), args.out)
    if not verdict.hypotheses_hold:
        _say(f"{tag}: hypotheses not satisfied")
        return EXIT_HYPOTHESES_FAILED
    if not verdict.conclusion_holds:
        _say(f"{tag}: THEOREM VIOLATION - hypotheses hold but the conclusion fails")
        return EXIT_INTERNAL
    _say(f"{tag}: hypotheses hold and the conclusion holds")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    tag = args.theorem
    _row_options(args, tag)
    sizes = {} if args.m is None else {"m": args.m}
    if tag in engine.THEOREMS:
        report = engine.sweep(
            tag,
            args.trials,
            grid_n=args.grid,
            growth_steps=args.growth,
            seed=args.seed,
            field=CoefficientField.from_tag(args.field),
            d=args.d,
            lam=args.lam,
            **sizes,
        )
    else:
        report = tp.sweep_transversal(tag, args.trials, seed=args.seed, **sizes)
    data = report.to_dict()
    _emit(_envelope("sweep", {"theorem": tag}, data), args.out)
    counts = data["counts"]
    _say(
        f"{tag} sweep: {counts['hypotheses_satisfied']}/{counts['total']} satisfied, "
        f"{counts['conclusion_violated']} violations"
    )
    return EXIT_OK if counts["conclusion_violated"] == 0 else EXIT_INTERNAL


def _cmd_transversal(args) -> int:
    if args.action == "profile" and args.resolution is not None:
        raise ValidationError("--resolution applies to transversal components only")
    family = tp.load_polygon_family(args.infile)
    if args.action == "profile":
        prof = tp.transversal_profile(family)

        def envelope(member, vertex):
            # the envelope is a*cos(t) + b*sin(t), with the vertex as (a, b)
            a, b = (str(Fraction(x, prof.scale)) for x in vertex)
            return {"member": member, "a": a, "b": b}

        pieces = [
            {
                "start_angle": panel.start_angle,
                "end_angle": panel.end_angle,
                "upper": envelope(panel.upper_member, panel.upper_vertex),
                "lower": envelope(panel.lower_member, panel.lower_vertex),
                "feasible": panel.feasible_sign > 0,
            }
            for panel in prof.panels
        ]
        result = {
            "panels": pieces,
            "breakpoints": list(prof.breakpoints),
            "identification": "(theta, p) ~ (theta + pi, -p)",
        }
        _emit(_envelope("transversal-profile", {"in": args.infile}, result), args.out)
        _say(f"profile with {len(pieces)} panels")
        return EXIT_OK
    summary = tp.components(tp.transversal_profile(family))
    result = summary.to_dict()
    params = {"in": args.infile}
    if args.resolution is not None:
        oracle = tp.sample_oracle(family, args.resolution)
        result = {
            "exact": result,
            "oracle": oracle.to_dict(),
            "counts_agree": summary.component_count == oracle.component_count
            and summary.full_circle == oracle.full_circle,
        }
        params["resolution"] = args.resolution
    _emit(_envelope("transversal-components", params, result), args.out)
    _say(
        f"components: {summary.component_count} "
        f"(full_circle={summary.full_circle})"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValidationError, MalformedInput, ContractViolation, OSError) as exc:
        _say(f"input error: {exc}")
        return EXIT_VALIDATION
    except GenerationFailure as exc:
        _say(f"generation failure: {exc}")
        return EXIT_INTERNAL
    except HellyTopoError as exc:
        _say(f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
