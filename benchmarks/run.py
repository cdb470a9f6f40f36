"""Benchmark entry point.

Usage, from the root of a sepconvwave checkout::

    python3 benchmarks/run.py --workload desk-sep --seed 1 --seconds 45 --trace 0

Runs one workload (``desk-sep`` or ``desk-full``) in
this process, as a closed loop with one client, and prints as its last
line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the workload untraced and then traced, reports the per-layer metrics
and writes the spans to ``.bench_traces/<workload>-seed<seed>.jsonl``.
The exit code is 1 when an output check fails and 2 when the working
directory is not a checkout.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

WORKLOADS = ("desk-sep", "desk-full")
REQUIRED = ("src/sepconvwave/__init__.py", "configs/desk.cfg")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may run on; numpy is not loaded yet."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    return min(99, max(50, (100 * (n - 10)) // n)) if n else 50


def _rate(per_pass: int, pass_seconds: list) -> float:
    """Work per second over all passes of a phase, spread over the whole run."""
    return per_pass * len(pass_seconds) / sum(pass_seconds)


def end_to_end(rec) -> tuple[dict, str]:
    import numpy as np

    steps = np.concatenate([np.asarray(s) for s in rec.step_s.values()])
    q = tail_percentile(len(steps))
    # each cell's median step, averaged over the cells: the cells' step times
    # form separate clusters, and a pooled median lands in the gap between two
    metrics = {
        "train_samples_per_s": (rec.train_samples / float(steps.sum()), "samples/s"),
        "step_ms_p50": (1e3 * float(np.mean([np.median(s) for s in rec.step_s.values()])), "ms"),
        "step_ms_tail": (1e3 * float(np.percentile(steps, q)), "ms"),
        "infer_samples_per_s": (_rate(rec.infer_samples, rec.infer_cycle_s), "samples/s"),
        "zoom_samples_per_s": (_rate(rec.zoom_samples, rec.zoom_cycle_s), "samples/s"),
        "generate_samples_per_s": (_rate(rec.generate_samples, rec.generate_pass_s), "samples/s"),
        "pipeline_s": (sum(rec.phases.values()), "s"),
        "setup_s": (rec.import_s + rec.config_s + statistics.median(rec.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "loss_final": (float(np.mean(rec.final_losses[0])), "loss"),
        "ok_ratio": ((rec.attempted - rec.failed) / rec.attempted, "ratio"),
    }
    note = f"step_ms_tail is p{q} of {len(steps)} steps"
    return metrics, note


def environment(args, threads: int) -> dict:
    import platform

    import numpy as np

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": threads, "numpy": np.__version__, "python": platform.python_version(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        env["cpu"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()[0]
            caches[f"L{level}{kind if kind in 'DI' else ''}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    return env


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=45, help="run length the work quota is scaled to")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _one_pass(workloads, args, rec, tracer=None) -> None:
    scratch = Path(".bench_tmp")
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workloads.run(args.workload, args.seed, args.seconds, tmp, rec, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [p for p in REQUIRED if not Path(p).is_file()]
    if missing:
        print(f"not a sepconvwave checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    threads = _limit_blas_threads()
    sys.path.insert(0, str(Path("src").resolve()))
    t0 = time.perf_counter()
    import workloads

    rec = workloads.Record(import_s=time.perf_counter() - t0)
    env = environment(args, threads)
    print(json.dumps({"environment": env}))
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        _one_pass(workloads, args, rec)
        metrics, note = end_to_end(rec)
        attempted, failed = rec.attempted, rec.failed
        failures = list(rec.failures)
        if args.trace:
            from tracing import Tracer, per_layer_metrics

            traced = workloads.Record()
            tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
            tracer.install()
            try:
                _one_pass(workloads, args, traced, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer_metrics(tracer, sum(traced.phases.values()), metrics["pipeline_s"][0])
            attempted, failed = attempted + traced.attempted, failed + traced.failed
            failures += traced.failures
            trace_path = Path(".bench_traces") / f"{args.workload}-seed{args.seed}.jsonl"
            trace_path.parent.mkdir(exist_ok=True)
            tracer.write(trace_path, {"environment": env})
            note = f"{len(tracer.spans)} spans written to {trace_path}"
        print(f"# {note}")
        for failure in failures:
            print(f"# check failed: {failure}", file=sys.stderr)
        result = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    except Exception:  # a raising operation is a failed one; report and exit 1
        traceback.print_exc()
        result["attempted"] = rec.attempted + 1
        result["failed"] = rec.failed + 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
