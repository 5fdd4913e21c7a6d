"""tautring benchmark: three exact workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload dr-m11 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each batch runs in a fresh interpreter (perfbench/child.py), single-threaded,
with tautring imported from this checkout's src/.  With --trace 0 the run
repeats the batch, each time in a new interpreter, while the next repetition
still fits in --seconds, and reports:

    wall_s       mean time of one batch (lazy caches fill inside it)
    op_p50_s     median over the ops of each op's mean time
    setup_s      median of interpreter start + import + input generation,
                 from a few set-up-only interpreters and every batch one
    peak_rss_mb  median ru_maxrss of the batch interpreters

The batch and op timings are means over the repetitions, not medians: the
host's speed switches between levels 1.4-1.7x apart, each held for seconds
to minutes, and a median over repetitions jumps to whichever level held for
most of the run, while the mean moves with the share of time spent at each.

With --trace 1 it runs the batch once untraced and once traced, requires
equal output digests, and reports the per-layer metrics of the traced batch
plus trace.overhead_ratio (traced / untraced wall_s).  The spans go to
.perfbench_out/spans-*.tsv.gz.

Every op's output is checked (see workloads.py); an op that raises or fails a
check counts in `failed` and does not stop the run.  On every seed the SHA-256
digest of every op's to_json must also equal the one digests.json records for
that op's key.  The last stdout line is {"correct", "attempted", "failed",
"metrics"}; the line before it is {"meta": ...} with the tautring commit,
Python version, nproc, seed, per-metric sample counts and failed_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import ROOT, WORKDIR

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dr-m11", "star-genus0", "graph-census")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170

# Wrapped functions each workload must reach; a miss is reported in the
# meta line as `unfired`.  relations.solve_monomial_relations runs only on
# the genus-1 base route, which none of the three workloads takes.
EXPECTED_FIRED = {
    "dr-m11": (
        "relations.dr_relation_coefficient", "relations.dr_relation",
        "pixton.omega_constant_term", "pixton.interpolated_constant_term",
        "pixton.omega_r", "pixton.weightings", "algebra.lagrange_interpolate",
        "algebra.multipoly_mul", "algebra.finite_difference_extract",
        "algebra.finite_difference_extract.evaluations", "strata.add",
        "strata.canonical_term", "strata.products", "strata.forget",
        "graphs.enumerate_stable_graphs", "graphs.automorphism_count"),
    "star-genus0": (
        "relations.theorem_star_reduce", "relations.boundary_expression",
        "relations.db.load", "relations.db.get", "relations.db.store",
        "strata.canonical_term", "strata.add", "strata.products",
        "strata.forget", "strata.gluing_pushforward", "strata.json",
        "graphs.stable_graph", "graphs.canonical_graph"),
    "graph-census": (
        "graphs.enumerate_stable_graphs", "graphs.canonical_graph",
        "graphs.stable_graph", "graphs.automorphism_count"),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not an op failure)."""


class Batch:
    """What one child interpreter reported."""

    def __init__(self, setup_s, report):
        self.setup_s = setup_s
        self.report = report


def spawn(workload, seed, deadline, *, trace=0, checks=1, setup_only=False) -> Batch:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--checks", str(checks)]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed keeps set iteration order, and so the work done,
    # the same in every interpreter
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("the run is out of time")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchmarkError(f"{workload} interpreter exited with {proc.returncode}")
    if setup_only:
        return Batch(setup_s, None)
    lines = [line for line in rest.splitlines() if line.strip()]
    if not lines:
        raise BenchmarkError(f"{workload} interpreter printed no report")
    return Batch(setup_s, json.loads(lines[-1]))


def recorded_digests(workload):
    """Op key -> SHA-256 of its to_json, recorded when the benchmark was
    added; the keys cover every input any seed can draw."""
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)[workload]


def count_failures(batches, recorded):
    """Per op: raised, failed a check, or differs from the first batch or
    from the recorded digest."""
    failed, messages = 0, []
    reference = batches[0].report["digests"]
    for number, batch in enumerate(batches):
        report = batch.report
        for index, (digest, error) in enumerate(zip(report["digests"],
                                                    report["errors"])):
            problem = error
            if problem is None and digest != reference[index]:
                problem = "output differs from the first batch's"
            if problem is None and digest != recorded.get(report["keys"][index]):
                problem = "output digest differs from digests.json"
            if problem is not None:
                failed += 1
                messages.append(f"batch {number} op {index} "
                                f"{report['inputs'][index]}: {problem}")
    return failed, messages


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tautring").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode() + b"\0")
        sources.update(path.read_bytes())
    return {"tautring_commit": commit, "source_sha256": sources.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def run_untraced(workload, seed, seconds, deadline):
    setups = [spawn(workload, seed, deadline, setup_only=True).setup_s
              for _ in range(SETUP_SAMPLES)]
    batches = []
    begin = time.monotonic()
    while True:
        batch = spawn(workload, seed, deadline, checks=int(not batches))
        batches.append(batch)
        setups.append(batch.setup_s)
        # the next batch costs about set-up plus batch; the first batch's
        # checks do not repeat
        next_s = statistics.median(b.setup_s + b.report["wall_s"] for b in batches)
        if time.monotonic() - begin + next_s > seconds:
            break
    mean_op_s = [statistics.fmean(times)
                 for times in zip(*(b.report["op_s"] for b in batches))]
    metrics = {
        "wall_s": statistics.fmean(b.report["wall_s"] for b in batches),
        "op_p50_s": statistics.median(mean_op_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(b.report["peak_rss_mb"] for b in batches),
    }
    samples = {"wall_s": len(batches), "op_p50_s": len(mean_op_s),
               "setup_s": len(setups), "peak_rss_mb": len(batches)}
    extra = {"batch_wall_s": [b.report["wall_s"] for b in batches],
             "setup_samples_s": setups}
    return batches, metrics, samples, extra


def run_traced(workload, seed, deadline):
    plain = spawn(workload, seed, deadline, trace=0, checks=1)
    traced = spawn(workload, seed, deadline, trace=1, checks=0)
    report = traced.report
    metrics = dict(report["layers"])
    metrics["trace.overhead_ratio"] = report["wall_s"] / plain.report["wall_s"]
    samples = {name: 1 for name in metrics}
    unfired = [name for name in EXPECTED_FIRED[workload]
               if name not in report["fired"]]
    extra = {"unfired": unfired, "absent_targets": report["absent_targets"],
             "spans": report["spans"], "spans_file": report["spans_file"]}
    return [plain, traced], metrics, samples, extra


def declared_units(trace) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    WORKDIR.mkdir(exist_ok=True)
    if trace:
        batches, metrics, samples, extra = run_traced(workload, seed, deadline)
    else:
        batches, metrics, samples, extra = run_untraced(workload, seed, seconds,
                                                        deadline)
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise BenchmarkError("measured metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    failed, messages = count_failures(batches, recorded_digests(workload))
    # a traced function the program no longer has would read 0, which looks
    # like a gain; the tracing targets must be updated instead
    gone = [f"tracing target {name} is gone" for name in extra.get("absent_targets", ())]
    attempted = sum(len(b.report["op_s"]) for b in batches)
    result = {
        "correct": failed == 0 and not gone,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    meta = dict(provenance(), workload=workload, seed=seed, trace=trace,
                seconds=seconds, batches=len(batches), samples=samples,
                failed_ratio=failed / attempted if attempted else 0.0,
                failures=gone + messages[:20],
                cold_caches_checked=batches[0].report["cold_caches_checked"],
                cold_caches_absent=batches[0].report["cold_caches_absent"],
                **extra)
    with open(WORKDIR / f"result-{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"meta": meta, "result": result}, handle, indent=1)
    return result, meta


def table(workload, result, meta) -> str:
    rows = [f"{workload}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} failed_ratio={meta['failed_ratio']:.4g}"]
    for name, entry in result["metrics"].items():
        rows.append(f"  {name:48s} {entry['value']:14.6g} {entry['unit']:6s}"
                    f" n={meta['samples'][name]}")
    if meta.get("unfired"):
        rows.append(f"  never ran, so read 0: {', '.join(meta['unfired'])}")
    rows.extend(f"  {failure}" for failure in meta["failures"])
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tautring" / "__init__.py").is_file():
        print(f"no tautring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, meta = run(name, args.seed, args.seconds, args.trace)
            print(table(name, result, meta),
                  file=sys.stdout if args.workload == "all" else sys.stderr)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps({"meta": meta}))
        combined = result
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
