"""Command line front end.

Three subcommands: `run` executes a scenario (file path or bundled name)
and emits a JSON-lines report, `list-checks` prints the formula behind
every registered check, `lvmb-check` tests a combinatorial family for
both admissibility conditions. Exit codes: 0 all verdicts hold, 1 a
check or condition failed, 2 malformed or invalid input.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .checks import all_checks
from .errors import SchemaError, VerifyError
from .lvmb import LvmbData, check_condition_i, check_condition_ii
from .scenarios import (
    bundled_scenario_names,
    find_scenario,
    load_json,
    run_scenario,
    serialize_report,
    validate_document,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="acs-verify",
        description="Numerical certification of transverse-embedding "
                    "constructions for almost complex structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run a scenario file or bundled scenario by name")
    run_p.add_argument(
        "scenario",
        help="path to a scenario JSON file, or a bundled scenario name")
    run_p.add_argument("--out", metavar="FILE",
                       help="write the report to FILE instead of stdout")
    run_p.add_argument("--tol-scale", type=float, default=1.0, metavar="S",
                       help="multiply every check tolerance by S")
    run_p.add_argument("--samples", type=int, default=None, metavar="N",
                       help="cap sample points and instance counts at N")
    run_p.add_argument("--seed", type=int, default=None, metavar="K",
                       help="override the scenario seed")
    run_p.add_argument("--timings", action="store_true",
                       help="record wall times (breaks byte determinism)")

    sub.add_parser("list-checks",
                   help="print every registered check and its formula")

    lv = sub.add_parser(
        "lvmb-check",
        help="test a combinatorial family for both admissibility conditions")
    lv.add_argument("input", help="JSON file with m, N, E and ell")
    return parser


def cmd_run(args) -> int:
    # run_scenario validates the document
    doc = load_json(find_scenario(args.scenario))
    records, aggregate = run_scenario(
        doc, tol_scale=args.tol_scale, sample_cap=args.samples,
        seed=args.seed, timings=args.timings)
    report = serialize_report(records, aggregate)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return 0 if aggregate["passed"] else 1


def cmd_list_checks() -> int:
    width = max(len(c.name) for c in all_checks())
    for check in all_checks():
        mark = " (opt-in)" if check.opt_in else ""
        print(f"{check.name:<{width}}  [{check.kind}]{mark}  {check.anchor}")
    print(f"\n{len(all_checks())} checks; bundled scenarios: "
          + ", ".join(bundled_scenario_names()))
    return 0


def cmd_lvmb_check(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        doc = load_json(fh.read())
    validate_document(doc, "lvmb_input.schema.json", "input")
    try:
        data = LvmbData.from_json_dict(doc)
    except VerifyError as exc:
        raise SchemaError(f"input rejected: {exc}") from exc
    rep_i = check_condition_i(data)
    rep_ii = check_condition_ii(data)
    out = {
        "condition_i": rep_i["ok"],
        "condition_ii": rep_ii["ok"],
        "witnesses": {
            "common_point": rep_i["common_point"],
            "pairs": rep_i["pairs"],
            "counterexample": rep_ii["counterexample"],
        },
    }
    print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    return 0 if (rep_i["ok"] and rep_ii["ok"]) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "list-checks":
            return cmd_list_checks()
        return cmd_lvmb_check(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # an unreadable or non-UTF-8 file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
