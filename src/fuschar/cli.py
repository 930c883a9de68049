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
from .groups import enumerate_group
from .specio import SpecError, load_fusion, load_group, resolve_word, table_to_json
from .verify import run_group_corpus, verify_conjecture, verify_group_case

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_ERROR = 2
# any other verdict ("error") exits EXIT_ERROR
VERDICT_EXIT = {"verified": EXIT_OK, "counterexample": EXIT_COUNTEREXAMPLE}

PAPER_ITEMS = ["table1", "table2", "table3", "table4", "table5", "table6",
               "lemma42", "lemma56", "lemma58", "example27"]


def _report_exit(report, fmt: str) -> int:
    """Print a verification report and return the exit code of its verdict."""
    _print_report(report, fmt)
    return VERDICT_EXIT.get(report.verdict, EXIT_ERROR)


def _print_report(report, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(f"{report.label}: {report.verdict}")
        print(f"  p = {report.p}, k(F) = {report.k}")
        print(f"  lhs det      = {report.lhs_det}")
        print(f"  lhs p-part   = {report.lhs_p_part}")
        print(f"  rhs product  = {report.rhs_product}")
        print(f"  saturation certified: {report.saturation_certified}")
        for key, val in report.checks.items():
            print(f"  {key}: {val}")


def _cmd_verify_group(args) -> int:
    group = load_group(args.group)
    return _report_exit(verify_group_case(group, args.p, label=args.group), args.format)


def _cmd_verify_fusion(args) -> int:
    from .fusion import TableFusion
    from .verify import verify_table_fusion

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


def _paper_exotic(name: str, p: int | None, fmt: str, large: bool = False) -> int:
    from .exotic import (
        build_exotic_fusion,
        chain_certificates,
        exotic_fusion_spec,
        overgroup_context,
        table_3492,
    )
    from .verify import check_certificate_chain, verify_table_fusion

    # the chains exist only at p = 5; every other system defaults to p = 3
    spec = exotic_fusion_spec(name, p or (5 if name.startswith("F547_chain") else 3))
    p = spec["p"]
    if spec["mode"] == "table":
        return _report_exit(verify_table_fusion(table_3492()), fmt)
    if spec["mode"] == "chain":
        ctx = overgroup_context(p, spec["base"])
        code = EXIT_OK
        for rep in check_certificate_chain(chain_certificates(spec["family"], p), ctx.irr_s):
            status = "passed" if rep.ok else f"FAILED {rep.failures()}"
            print(f"{rep.label}: certificate {status}")
            if not rep.ok:
                code = EXIT_COUNTEREXAMPLE
        return code
    if p >= 7 and not large:
        raise SpecError("p >= 7 overgroup constructions are gated behind --large")
    merged, ctx = build_exotic_fusion(name, p)
    return _report_exit(verify_conjecture(merged, ctx.irr_s, f"{name}@p={p}"), fmt)


def _cmd_paper(args) -> int:
    from .reftables import reproduce

    item = args.item
    if item.startswith("exotic:"):
        return _paper_exotic(item.split(":", 1)[1], args.p, args.format, args.large)
    if item not in PAPER_ITEMS:
        raise SpecError(f"unknown item {item!r}; choose from "
                        f"{PAPER_ITEMS} or exotic:<name>")
    if item in ("table1", "table2", "table4") and (args.p or 0) >= 7 and not args.large:
        raise SpecError("p >= 7 overgroup tables are gated behind --large")
    if item == "example27":
        from .reftables import check_fixed_prime, reproduce_example27

        check_fixed_prime(item, args.p)
        report, verdict = reproduce_example27()
        if not report.ok:
            print(f"{report.label}: reproduction BROKEN: {report.discrepancies}",
                  file=sys.stderr)
            return EXIT_ERROR
        _print_report(verdict, args.format)
        return EXIT_COUNTEREXAMPLE
    report = reproduce(item, args.p)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        status = "all matched" if report.ok else "MISMATCH"
        print(f"{report.label}: {status} "
              f"({len(report.matches)} matches, {len(report.discrepancies)} discrepancies)")
        for d in report.discrepancies:
            print(f"  - {d}")
        for key, val in report.notes.items():
            print(f"  note {key}: {val}")
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


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
                    help=f"one of {PAPER_ITEMS} or exotic:<name> with name in "
                         "G_prune, F1, Op_F1, F_3492, F547_chain:psu, F547_chain:g")
    pp.add_argument("--p", type=int, default=None)
    pp.add_argument("--large", action="store_true",
                    help="allow p = 7 overgroup computations")
    pp.set_defaults(func=_cmd_paper)

    cp = sub.add_parser("corpus", help="run whole-group verifications")
    cp.add_argument("--dir", default=None,
                    help="verify every group spec (*.json) in this directory "
                         "instead of the builtin corpus")
    cp.set_defaults(func=_cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
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
