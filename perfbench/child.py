"""One batch of one workload in a fresh interpreter; started by run.py.

Prints `ready` once the interpreter is up, tautring is imported and the
inputs are generated (run.py times set-up up to that line), then runs the
batch and prints one JSON line with the timings, digests and check results.
With --setup-only it stops after `ready`.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".perfbench_out"


def import_tautring():
    """Import tautring from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tautring
    if not Path(tautring.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"tautring was imported from {tautring.__file__}, "
                          f"not from {src}")


def lru_functions(module):
    return [fn for fn in vars(module).values()
            if callable(fn) and hasattr(fn, "cache_info")
            and getattr(fn, "__module__", None) == module.__name__]


def lru_totals(modules) -> dict:
    """(hits, misses) summed over each module's lru_cache'd functions."""
    out = {}
    for layer, module in modules.items():
        infos = [fn.cache_info() for fn in lru_functions(module)]
        out[layer] = (sum(i.hits for i in infos), sum(i.misses for i in infos))
    return out


def assert_cold(modules, module_caches):
    """A run that starts with warm caches would time almost nothing."""
    checked, absent = [], []
    for layer, attr in module_caches:
        cache = getattr(modules[layer], attr, None)
        if cache is None:
            absent.append(f"{layer}.{attr}")
            continue
        if cache:
            raise RuntimeError(f"{layer}.{attr} holds {len(cache)} entries at start")
        checked.append(f"{layer}.{attr}")
    for layer, module in modules.items():
        for fn in lru_functions(module):
            size = fn.cache_info().currsize
            if size:
                raise RuntimeError(f"{layer}.{fn.__name__} holds {size} entries at start")
            checked.append(f"{layer}.{fn.__name__}")
    return checked, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checks", type=int, choices=(0, 1), default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_tautring()
    from tautring import algebra, graphs, pixton, relations, strata
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(random.Random(args.seed))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    modules = {"algebra": algebra, "graphs": graphs, "pixton": pixton,
               "relations": relations, "strata": strata}
    cold_checked, cold_absent = assert_cold(modules, workloads.MODULE_CACHES)
    workload.start(WORKDIR)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        stale = tracer.stale_bindings()
        if stale:
            raise RuntimeError(f"tracing missed the bindings {stale}")

    outputs, errors, op_s = [], [], []
    batch_start = time.perf_counter()
    for index, op in enumerate(inputs):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            outputs.append(workload.run(op))
            errors.append(None)
        except Exception as exc:  # an op that fails is counted, not fatal
            traceback.print_exc()
            outputs.append(None)
            errors.append(f"raised {exc!r}")
        op_s.append(time.perf_counter() - start)
    wall_s = time.perf_counter() - batch_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall_s, "op_s": op_s, "peak_rss_mb": peak_rss_mb,
              "cold_caches_checked": cold_checked,
              "cold_caches_absent": cold_absent}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(lru_totals(modules))
        result["fired"] = sorted(tracer.fired())
        result["absent_targets"] = tracer.absent
        spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.span_name)

    digests = []
    for index, (op, output) in enumerate(zip(inputs, outputs)):
        digest = None
        if output is not None:
            # a check that raises fails its op, as a run that raises does
            try:
                digest = workloads.digest(workload.to_json(op, output))
                if args.checks:
                    problems = workload.check(op, output)
                    if problems:
                        errors[index] = "; ".join(problems)
            except Exception as exc:
                traceback.print_exc()
                errors[index] = f"check raised {exc!r}"
        digests.append(digest)
    try:
        problems = workload.finish()
    except Exception as exc:
        traceback.print_exc()
        problems = [f"final check raised {exc!r}"]
    if problems and inputs:
        errors[-1] = "; ".join(filter(None, [errors[-1]] + problems))
    result["digests"] = digests
    result["errors"] = errors
    result["inputs"] = [repr(op) for op in inputs]
    result["keys"] = [workload.key(op) for op in inputs]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
