"""fuschar benchmark: batch verifications timed from a cold process.

    python3 perfbench/run.py --workload corpus|merges|overgroup_p5 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
A run makes one or more passes over the workload's items, each pass in
fresh worker processes, and starts another pass only while it fits in
`--seconds`.  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it makes one untraced and one traced pass and prints the
per-layer metrics.  The last line of stdout is one JSON object.  See
README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("corpus", "merges", "overgroup_p5")
OVERGROUP_ITEMS = ("table5", "exotic:F547_chain:psu", "exotic:F547_chain:g")
MERGE_ROUNDS = 2        # specs per pool group in one merges pass
SETUP_SAMPLES = 5       # per-process set-up measurements per run, for a steady median
RUN_LIMIT_S = 170       # a run must end well inside 180 s

# per-layer metric -> unit; all are reported on every workload (0 where a
# workload does not reach the layer)
PER_LAYER = {
    "groups.enumerate_group.s": "s",
    "groups.conjugacy_classes.s": "s",
    "groups.conjugacy_classes.calls": "count",
    "groups.conjugacy_classes.cache_hit_ratio": "ratio",
    "groups.elements": "count",
    "chartable.dixon_character_table.s": "s",
    "chartable.dixon_character_table.calls": "count",
    "chartable.restrict_table.s": "s",
    "chartable.inner_product.calls": "count",
    "chartable.inner_product.s": "s",
    "cyclotomic.mul.calls": "count",
    "cyclotomic.add.calls": "count",
    "cyclotomic.embedded.calls": "count",
    "cyclotomic.key.calls": "count",
    "cyclotomic.minimized.calls": "count",
    "cyclotomic.minimized.s": "s",
    "intlinalg.hnf.calls": "count",
    "intlinalg.hnf.s": "s",
    "intlinalg.kernel_rows.s": "s",
    "intlinalg.det_exact.calls": "count",
    "intlinalg.det_exact.s": "s",
    "intlinalg.solve_left.calls": "count",
    "intlinalg.solve_left.s": "s",
    "intlinalg.lattice_index.s": "s",
    "fusion.fusion_from_group.s": "s",
    "fusion.apply_merges.s": "s",
    "specio.fusion_from_spec.self_s": "s",
    "stable.stable_character_basis.s": "s",
    "stable.stable_character_basis.calls": "count",
    "stable.basis_calls_per_item": "ratio",
    "stable.decomposition_matrix.s": "s",
    "stable.irr_coordinates.s": "s",
    "stable.basis_max_bits": "bits",
    "verify.gram_determinant.s": "s",
    "verify.gram_determinant.calls": "count",
    "verify.gram_offdiag_share": "ratio",
    "verify.verify_conjecture.self_s": "s",
    "verify.verify_group_case.self_s": "s",
    "verify.check_induction_certificate.s": "s",
    "constructions.build_group.s": "s",
    "exotic.overgroup_context.self_s": "s",
    "exotic.chain_certificates.s": "s",
    "cli.main.s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


# -- inputs -------------------------------------------------------------------


def make_jobs(workload: str, seed: int) -> list[list]:
    """The item lists of one pass, one list per fresh process."""
    rng = random.Random(seed)
    if workload == "corpus":
        sys.path.insert(0, SRC)
        from fuschar.verify import builtin_corpus

        entries = [list(e) for e in builtin_corpus()]
        rng.shuffle(entries)
        return [entries]
    if workload == "merges":
        from specgen import merge_specs

        return [[list(item)] for item in merge_specs(seed, MERGE_ROUNDS)]
    items = [["paper", "--item", name] for name in OVERGROUP_ITEMS]
    rng.shuffle(items)
    return [[argv] for argv in items]


# -- processes ----------------------------------------------------------------


def run_worker(job: dict, deadline: float) -> dict:
    """Start one worker, wait for it, and return its result with `setup_s`."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached before a worker could start")
    spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps(job),
                              capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['workload']} worker exceeded the run time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['workload']} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawn
    return result


def run_pass(workload: str, jobs: list[list], trace: bool, deadline: float) -> dict:
    results = []
    for k, items in enumerate(jobs):
        job = {"workload": workload, "src": SRC, "items": items, "trace": int(trace),
               "trace_out": os.path.join(OUT, f"{workload}-{k}.spans.json")}
        result = run_worker(job, deadline)
        # an item's time to verdict runs from its request: the process start
        # for a process's first item, the previous verdict for the others
        result["items"][0]["seconds"] += result["setup_s"]
        results.append(result)
    items = [it for r in results for it in r["items"]]
    return {"items": items, "setups": [r["setup_s"] for r in results],
            "wall_s": sum(it["seconds"] for it in items),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "traces": [r["trace"] for r in results if "trace" in r]}


def probe_setup(workload: str, deadline: float) -> float:
    """Set-up time of one fresh process that runs no item."""
    job = {"workload": workload, "src": SRC, "probe": 1}
    return run_worker(job, deadline)["setup_s"]


# -- checks -------------------------------------------------------------------


def verdict_digest(items: list[dict]) -> str:
    rows = sorted([it["label"], it["verdict"], it["lhs"], it["rhs"]] for it in items)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def stored_digest(workload: str) -> str | None:
    """The workload's verdict digest; every seed verifies the same items."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload)


# -- metrics ------------------------------------------------------------------


def end_to_end(passes: list[dict], setups: list[float], n_processes: int) -> dict:
    times = [it["seconds"] for p in passes for it in p["items"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "item_p50_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups) * n_processes, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of a traced pass, summed over its processes."""
    layers: dict[str, dict] = {}
    extra = {"items": 0, "cache_hits": 0, "gram_offdiag": 0, "elements": 0}
    for tr in traced["traces"]:
        for name, rec in tr["layers"].items():
            acc = layers.setdefault(name, {})
            for field, val in rec.items():
                acc[field] = acc.get(field, 0) + val
        for key in extra:
            extra[key] += tr[key]

    def get(name: str, field: str):
        return layers.get(name, {}).get(field, 0)

    out = {metric: get(*metric.rsplit(".", 1)) for metric in PER_LAYER}
    cc_calls = get("groups.conjugacy_classes", "calls")
    gram_calls = get("verify.gram_determinant", "calls")
    out.update({
        "groups.conjugacy_classes.cache_hit_ratio":
            extra["cache_hits"] / cc_calls if cc_calls else 0.0,
        "groups.elements": extra["elements"],
        "stable.basis_calls_per_item":
            get("stable.stable_character_basis", "calls") / extra["items"],
        "stable.basis_max_bits": max([0] + [s.get("basis_bits", 0) for s in item_sizes(traced)]),
        "verify.gram_offdiag_share": extra["gram_offdiag"] / gram_calls if gram_calls else 0.0,
        "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
    })
    return {m: (out[m], PER_LAYER[m]) for m in PER_LAYER}


def item_sizes(traced: dict) -> list[dict]:
    return [size for tr in traced["traces"] for size in tr["sizes"].values()]


# -- command ------------------------------------------------------------------


def run(args) -> int:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    jobs = make_jobs(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    passes = [run_pass(args.workload, jobs, False, deadline)]
    traced = None
    if args.trace:
        traced = run_pass(args.workload, jobs, True, deadline)
    else:
        while time.monotonic() - start + passes[-1]["wall_s"] <= args.seconds:
            passes.append(run_pass(args.workload, jobs, False, deadline))
    # per-process set-up samples: the passes' processes, then item-less ones
    setups = [s for p in passes for s in p["setups"]]
    while traced is None and len(setups) < SETUP_SAMPLES:
        setups.append(probe_setup(args.workload, deadline))
    measured = passes + ([traced] if traced else [])
    with open(os.path.join(OUT, f"{args.workload}.items.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "setups": setups,
                   "passes": [p["items"] for p in measured]}, fh, indent=1)

    failures = [it for p in measured for it in p["items"] if it["error"]]
    attempted = sum(len(p["items"]) for p in measured)
    problems = [f"{it['label']}: {it['error']}" for it in failures]
    # every pass, the traced one too, must reproduce the stored verdicts
    want = stored_digest(args.workload)
    digest = verdict_digest(passes[0]["items"])
    for p in measured:
        got = verdict_digest(p["items"])
        if got != want:
            problems.append(f"verdict digest {got} differs from the stored {want}")

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced pass(es), "
          f"{attempted} items attempted, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.4f}), verdict digest {digest}")
    for line in problems:
        print(f"  PROBLEM {line}")
    times = sorted(it["seconds"] for p in passes for it in p["items"])
    if traced is None:
        metrics = end_to_end(passes, setups, len(jobs))
        p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
        beyond = sum(1 for t in times if t > p90)
        for name, (val, unit) in metrics.items():
            n = f" (n = {len(times)} items)" if name.startswith("item_") else ""
            print(f"  {name:12} {val:.6g} {unit}{n}")
        if beyond >= 10:
            print(f"  item_p90_s   {p90:.6g} s (n = {len(times)} items, {beyond} beyond p90)")
        else:
            print(f"  item_p90_s   not reported: {beyond} of {len(times)} items lie beyond p90")
    else:
        metrics = per_layer(traced, passes[0])
        for name, (val, unit) in metrics.items():
            print(f"  {name:42} {val:.6g} {unit}")
        sizes = item_sizes(traced)
        for key in ("group_order", "s_order", "k", "conductor", "basis_bits"):
            vals = [s[key] for s in sizes if key in s]
            if vals:
                print(f"  size {key:12} median {statistics.median(vals):g}, max {max(vals)} "
                      f"over {len(vals)} items")
        print(f"  spans written to {os.path.relpath(OUT, ROOT)}/")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fuschar", "__init__.py")):
        print(f"error: no fuschar sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
