"""One fresh process of a benchmark pass.

Reads a job (JSON) on stdin, imports fuschar from the checkout's `src`,
reports when it is ready for its first item, runs the items in a closed
loop (the next item starts when the previous verdict is in), checks every
verdict outside the timed region and prints one JSON result line.

Job keys: `workload`, `src`, `items`, `trace` (0/1), `trace_out` (path),
`probe` (stop once ready: a set-up measurement).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    workload = job["workload"]
    import fuschar  # noqa: F401  (imports every module but the CLI)
    if workload == "overgroup_p5":
        import fuschar.cli  # noqa: F401
    ready = time.monotonic()
    out = {"ready": ready}
    if job.get("probe"):
        print(json.dumps(out))
        return 0
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = {"corpus": _run_corpus, "merges": _run_merges,
           "overgroup_p5": _run_overgroup}[workload]
    out["items"] = run(job["items"], tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = tracer.summary(len(out["items"]))
        tracer.write(job["trace_out"])
    print(json.dumps(out))
    return 0


def _record(label, seconds, verdict, lhs="", rhs="", error=None):
    return {"label": label, "seconds": seconds, "verdict": verdict,
            "lhs": str(lhs), "rhs": str(rhs), "error": error}


def _run_corpus(entries, tracer):
    """The shuffled builtin corpus through `run_group_corpus`, as `fuschar
    corpus` runs it; per-item times come from its progress callback."""
    from fuschar.verify import run_group_corpus

    stamps = []

    def progress(report):
        stamps.append(time.perf_counter())
        if tracer is not None:
            tracer.item += 1

    if tracer is not None:
        tracer.item = 0
    start = time.perf_counter()
    summary = run_group_corpus([tuple(e) for e in entries], progress=progress)
    records = []
    for report, t0, t1 in zip(summary["reports"], [start] + stamps, stamps):
        c = report.checks
        error = None
        if report.verdict != "verified":
            error = f"verdict {report.verdict}: {c.get('error', '')}"
        elif not (c.get("eq_3_2") is True and c.get("gcd_det_C_p") == 1
                  and c.get("restriction_identity") is True):
            error = f"decomposition cross-checks failed: {c}"
        records.append(_record(report.label, t1 - t0, report.verdict,
                               report.lhs_det, report.rhs_product, error))
    return records


def _run_merges(items, tracer):
    """Fusion specs through `fusion_from_spec` and `verify_conjecture`, the
    steps `fuschar verify-fusion` takes for a spec file."""
    import fuschar.chartable as chartable
    import fuschar.specio as specio
    import fuschar.verify as verify

    records = []
    for i, (label, spec) in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = time.perf_counter()
        try:
            fusion = specio.fusion_from_spec(spec)
            irr_s = chartable.dixon_character_table(fusion.S)
            report = verify.verify_conjecture(fusion, irr_s, label)
        except Exception as exc:  # a raising item counts as failed
            records.append(_record(label, time.perf_counter() - t0, "raised",
                                   error=f"{type(exc).__name__}: {exc}"))
            continue
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        error = _merge_oracle(fusion, irr_s, report)
        if tracer is not None:
            tracer.enabled = True
        records.append(_record(label, seconds, report.verdict, report.lhs_det,
                               report.rhs_product, error))
    return records


def _merge_oracle(fusion, irr_s, report):
    """Independent integer check of one merges verdict, or an error string.

    Irr(S) is orthonormal and stable characters are constant on each fusion
    class C_i, so det(X conj(X)^T) = det(B B^T) * |S|^k / prod |C_i| for the
    HNF stable basis B in Irr(S) coordinates.
    """
    from fuschar.intlinalg import det_exact, mat_mul, p_part, transpose
    from fuschar.stable import stable_character_basis

    if report.verdict not in ("verified", "counterexample"):
        return f"verdict {report.verdict}: {report.checks.get('error', '')}"
    b = stable_character_basis(irr_s, fusion).basis
    k = fusion.k
    class_sizes = 1
    centralizers = 1
    for fc in fusion.classes:
        class_sizes *= fc.size
        centralizers *= fc.centralizer_order
    if report.lhs_det * class_sizes != det_exact(mat_mul(b, transpose(b))) * fusion.S.order ** k:
        return "lhs_det disagrees with det(B B^T) |S|^k / prod |C_i|"
    if report.rhs_product != centralizers:
        return "rhs_product is not the product of the centraliser orders"
    expect = "verified" if p_part(report.lhs_det, fusion.p) == centralizers else "counterexample"
    if report.verdict != expect:
        return f"verdict {report.verdict} but the p-part comparison gives {expect}"
    return None


# item -> (phrase its output must show, whether every line must show it)
_EXPECTED_OUTPUT = {"table5": ("all matched", False),
                    "exotic:F547_chain:psu": ("certificate passed", True),
                    "exotic:F547_chain:g": ("certificate passed", True)}


def _run_overgroup(items, tracer):
    """One `fuschar paper` item (this process is fresh for it)."""
    import fuschar.cli as cli

    records = []
    for i, argv in enumerate(items):
        label = argv[-1]
        if tracer is not None:
            tracer.item = i
        text = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(text):
                code = cli.main(argv)
        except Exception as exc:  # a raising item counts as failed
            records.append(_record(label, time.perf_counter() - t0, "raised",
                                   error=f"{type(exc).__name__}: {exc}"))
            continue
        seconds = time.perf_counter() - t0
        lines = text.getvalue().splitlines()
        want, every_line = _EXPECTED_OUTPUT[label]
        error = None
        if code != 0:
            error = f"exit code {code}"
        elif not lines or not all(want in line for line in (lines if every_line else lines[:1])):
            error = f"expected {want!r} in the output: {lines}"
        records.append(_record(label, seconds, f"exit {code}: {text.getvalue()}",
                               error=error))
    return records


if __name__ == "__main__":
    raise SystemExit(main())
