"""Command-line front end.

Subcommands: verify-group, verify-fusion, char-table, paper, corpus.
Exit codes: 0 all verified/matched, 1 counterexample or mismatch found,
2 usage, arithmetic or internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .chartable import dixon_character_table
from .fusion import TableFusion
from .groups import enumerate_group
from .reftables import ITEMS, reproduce
from .specio import SpecError, load_fusion, load_group, resolve_word, table_to_json
from .verify import run_group_corpus, verify_conjecture, verify_group_case, verify_table_fusion

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_ERROR = 2
# any other verdict ("error") exits EXIT_ERROR
VERDICT_EXIT = {"verified": EXIT_OK, "counterexample": EXIT_COUNTEREXAMPLE,
                "mismatch": EXIT_COUNTEREXAMPLE}


def _report_exit(report, fmt: str) -> int:
    """Print a report, as its JSON or its text lines, and return the exit
    code of its verdict: the one output path of every verify and paper run."""
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    return VERDICT_EXIT.get(report.verdict, EXIT_ERROR)


def _cmd_verify_group(args) -> int:
    group = load_group(args.group)
    return _report_exit(verify_group_case(group, args.p, label=args.group), args.format)


def _cmd_verify_fusion(args) -> int:
    fusion = load_fusion(args.fusion)
    if isinstance(fusion, TableFusion):
        report = verify_table_fusion(fusion, label=args.fusion)
    else:
        table = dixon_character_table(fusion.S)
        report = verify_conjecture(fusion, table, label=args.fusion)
    return _report_exit(report, args.format)


def _cmd_char_table(args) -> int:
    group = load_group(args.group)
    if args.restrict_to:
        gens = [resolve_word(w, group) for w in args.restrict_to.split(",")]
        group = enumerate_group(gens, max_order=group.order)
    table = dixon_character_table(group)
    data = table_to_json(table)
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"|G| = {group.order}, classes = {table.k}, "
              f"conductor = {table.conductor}")
        print("degrees:", table.degrees())
        for chi in table.chars:
            print("  " + "  ".join(repr(v) for v in chi.values))
    return EXIT_OK


def _cmd_paper(args) -> int:
    return _report_exit(reproduce(args.item, args.p), args.format)


def _cmd_corpus(args) -> int:
    def progress(rep):
        if args.format == "text":
            print(f"{rep.label}: {rep.verdict}")

    if args.dir:
        try:
            files = sorted(f for f in os.listdir(args.dir) if f.endswith(".json"))
        except OSError as exc:
            raise SpecError(f"{args.dir}: cannot list: {exc.strerror or exc}") from exc
        # every file is verified at each prime divisor of its group order
        summary = run_group_corpus(
            [(f, 0) for f in files], progress=progress,
            load=lambda f: load_group(os.path.join(args.dir, f)))
    else:
        summary = run_group_corpus(progress=progress)
    if args.format == "json":
        print(json.dumps({
            "total": summary["total"],
            "verified": summary["verified"],
            "failures": [r.to_json() for r in summary["failures"]],
        }, indent=2, sort_keys=True))
    else:
        print(f"verified {summary['verified']} / {summary['total']}")
        for rep in summary["failures"]:
            print(f"  FAILED {rep.label}: {rep.verdict} {rep.checks}")
    # the worst verdict decides: any error exits 2, else any counterexample 1
    return max((VERDICT_EXIT.get(rep.verdict, EXIT_ERROR) for rep in summary["failures"]),
               default=EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuschar",
        description="Exact verification of the character-table determinant "
                    "identity for fusion systems on finite p-groups.")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    vg = sub.add_parser("verify-group", help="verify the fusion of a group file")
    vg.add_argument("-g", "--group", required=True, help="group spec JSON path")
    vg.add_argument("-p", type=int, required=True, help="the prime")
    vg.set_defaults(func=_cmd_verify_group)

    vf = sub.add_parser("verify-fusion", help="verify a fusion spec file")
    vf.add_argument("-f", "--fusion", required=True, help="fusion spec JSON path")
    vf.set_defaults(func=_cmd_verify_fusion)

    ct = sub.add_parser("char-table", help="print an exact character table")
    ct.add_argument("-g", "--group", required=True)
    ct.add_argument("--restrict-to", default=None,
                    help="comma-separated words generating a subgroup")
    ct.set_defaults(func=_cmd_char_table)

    pp = sub.add_parser("paper", help="run a bundled reproduction suite")
    pp.add_argument("--item", required=True,
                    help="one of these, with the prime it runs at without --p: " + ", ".join(
                        f"{name} ({item.p}{' only' if item.fixed else ''})"
                        for name, item in ITEMS.items()))
    pp.add_argument("--p", type=int, default=None)
    pp.set_defaults(func=_cmd_paper)

    cp = sub.add_parser("corpus", help="run whole-group verifications")
    cp.add_argument("--dir", default=None,
                    help="verify every group spec (*.json) in this directory "
                         "instead of the builtin corpus")
    cp.set_defaults(func=_cmd_corpus)
    return parser


def _discard_stdout() -> None:
    """Point the stdout descriptor at the null device, so the data still
    buffered for a closed pipe is dropped instead of failing at exit."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # stdout has no descriptor (captured or replaced)
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (say `| head`): the output ends here
        _discard_stdout()
        print("error: standard output was closed before the output ended", file=sys.stderr)
        return EXIT_ERROR
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ArithmeticError, AssertionError, ValueError) as exc:
        print(f"arithmetic/usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash is not a counterexample
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
