"""careql benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload train_cql_multimodal --seed 1 \
        --seconds 20 --trace 0

Run from the root of a careql checkout. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (set-up time, median
operation time, peak RSS); with ``--trace 1`` they are the per-layer ones
from spans recorded around careql's entry points. The line before it holds
the environment and the sample counts. See perfbench/README.md.
"""

import os

# One BLAS thread, fixed before numpy is first imported: with more threads
# than cores, a second numpy process makes OpenBLAS oversubscribe the CPU.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "careql" / "__init__.py").is_file():
        print(f"careql sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    cls = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"

    try:
        return measure(args, env, cls, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, env: dict, cls, work: Path) -> int:
    import spans

    # set-up: input generation and warm-up, repeated for a steady median
    setup_times = []
    for _ in range(SETUP_REPEATS):
        wl = None  # free the previous set-up, so peak RSS holds one
        t0 = perf_counter()
        wl = cls(args.seed, work)
        setup_times.append(perf_counter() - t0)

    tracer = spans.Tracer()
    op_times, traced_ops, untraced_ops, unexplained = [], [], [], []
    attempted = failed = 0
    wall0, cpu0 = perf_counter(), cpu_seconds()
    deadline = wall0 + args.seconds
    while perf_counter() < deadline or attempted < 1 + args.trace:
        i = attempted
        traced = bool(args.trace) and i % 2 == 1
        restore = None
        if traced:
            tracer.op = i
            restore = spans.instrument(tracer)
        t0 = perf_counter()
        try:
            out, problems = wl.run(i), []
        except Exception:
            out, problems = None, [traceback.format_exc()]
        elapsed = perf_counter() - t0
        if restore is not None:
            restore()
        if not problems:
            try:
                problems = wl.check(i, out)
            except Exception:
                problems = [traceback.format_exc()]
        attempted += 1
        if problems:
            failed += 1
            print(f"operation {i} failed: {problems}", file=sys.stderr)
        op_times.append(elapsed)
        if traced:
            traced_ops.append(i)
            unexplained.append(elapsed - spans.top_level_time(tracer, i))
        else:
            untraced_ops.append(i)
    wall, cpu = perf_counter() - wall0, cpu_seconds() - cpu0

    if args.trace:
        traced_times = [op_times[i] for i in traced_ops]
        untraced_times = [op_times[i] for i in untraced_ops]
        metrics = spans.layer_metrics(tracer, traced_ops)
        metrics.update(wl.quality())
        metrics["process.cpu_util"] = cpu / wall
        metrics["process.tracing_overhead"] = \
            statistics.median(traced_times) / statistics.median(untraced_times) - 1.0
        metrics["process.unexplained_s"] = statistics.mean(unexplained)
        metrics["process.unexplained_share"] = sum(unexplained) / sum(traced_times)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
        samples = {"traced_ops": len(traced_ops), "untraced_ops": len(untraced_ops)}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"ops": len(op_times), "op_s_quartiles": quartiles(op_times),
                   "op_s_min": min(op_times), "op_s_max": max(op_times),
                   "setup_s_all": setup_times}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are measured "
                           f"or declared in BENCHMARK.json, not both")
    result_metrics = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in units.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": env, "samples": samples}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
