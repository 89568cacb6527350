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

from . import __version__
from .complex_core import load_family
from .envelope import components, sample_oracle, transversal_profile
from .errors import (
    ContractViolation,
    GenerationFailure,
    HellyTopoError,
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

# (dest, flag, keyword) of the options a row may read; the parser leaves
# them None, so that one left out takes the library's default and one given
# to a row that ignores it is an error
ROW_OPTIONS = (
    ("field", "--field", "field"),
    ("grid", "--grid", "grid_n"),
    ("m", "--m", "m"),
    ("growth", "--growth", "growth_steps"),
    ("d", "--d", "d"),
    ("lam", "--lambda", "lam"),
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


def _row_options(args, tag) -> dict:
    """The keyword arguments of the ROW_OPTIONS the command line gives; one
    that the row ignores is an input error.  An engine row reads the field,
    the generator's grid and growth, and its own parameter; a transversal
    row reads none of them.  Every sweep judges its own --m."""
    read = {"m"}
    if tag in engine.THEOREMS:
        param = engine.THEOREMS[tag].param
        read |= {"field", "grid", "growth", "lam" if param == "lambda" else param}
    given = {}
    for dest, flag, keyword in ROW_OPTIONS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        if dest not in read:
            raise ValidationError(f"{flag} does not apply to {tag}")
        given[keyword] = CoefficientField.from_tag(value) if dest == "field" else value
    return given


def _cmd_verify(args) -> int:
    tag = args.theorem
    options = _row_options(args, tag)
    if tag in engine.THEOREMS:
        verdict = engine.run_verifier(tag, load_family(args.infile), **options)
        echo = {"field": verdict.field.value, **verdict.ledger.params}
    else:
        verdict = tp.verify_transversal(tag, tp.load_polygon_family(args.infile))
        # a transversal verdict reads no field, yet its reports have always
        # echoed the engine's default one, and the CLI corpus goldens pin it
        echo = {"field": "gf2"}
    params = {"in": args.infile, "theorem": tag, **echo}
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
    sweep = engine.sweep if tag in engine.THEOREMS else tp.sweep_transversal
    report = sweep(tag, args.trials, seed=args.seed, **_row_options(args, tag))
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
    profile = transversal_profile(family)
    if args.action == "profile":
        _emit(_envelope("transversal-profile", {"in": args.infile}, profile.to_dict()), args.out)
        _say(f"profile with {len(profile.panels)} panels")
        return EXIT_OK
    summary = components(profile)
    result = summary.to_dict()
    params = {"in": args.infile}
    if args.resolution is not None:
        oracle = sample_oracle(family, args.resolution)
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
    except (ValidationError, ContractViolation, OSError) as exc:
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
