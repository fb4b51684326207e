"""cuntzlab benchmark.

    python3 bench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a source tree; the package is imported from `src/`.
One process, one thread, closed loop: each item starts when the previous
one has finished.  The seed only shuffles the order of the items, which
are independent and exhaustive, so it never changes what is computed.

With `--trace 0` the run makes passes over the workload until another pass
would end after `--seconds` (and at least `MIN_PASSES[workload]` passes),
and reports the end-to-end metrics.  Times of workloads marked `corrected`
are corrected for the speed of the machine while they were taken (see
`meter.py`).  With `--trace 1` it makes one untraced and one traced pass
and reports the per-layer metrics.  Each run checks its outputs against
`refs.json`, prints the metrics, writes a run record under `.bench_out/`,
prints one JSON object as its last line, and exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("table1", "ef_dense", "sparse_images")
# Passes every run makes at least; they fix the tail percentile.
MIN_PASSES = {"table1": 2, "ef_dense": 1, "sparse_images": 1}
SETUP_PROBES = 7
SETUP_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "import cuntzlab; t = time.clock_gettime(time.CLOCK_MONOTONIC); "
               "print(t, cuntzlab.__file__)")


def tail_percentile(n_items: int) -> float:
    """The highest percentile with at least 10 of `n_items` beyond it."""
    return 100.0 * (n_items - 10) / n_items


def measure_setup() -> list:
    """Seconds from spawning a fresh interpreter to `import cuntzlab` done,
    once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                             capture_output=True, text=True, check=True)
        t_done, where = out.stdout.strip().split(maxsplit=1)
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"cuntzlab imported from {where}, not {SRC}")
        samples.append(float(t_done) - t0)
    return samples


def run_pass(workload, items, order, refs, meter) -> dict:
    """Run every item once, in `order`, then the cross-item checks, and
    time each step.  A failed item is a false check, an exception or a
    digest that differs from the reference."""
    clock = time.perf_counter
    steps = []  # (item index or None, start, end)
    failed = set()

    def step(idx, fn):
        if meter:
            meter.calibrate_if_due()
        t = clock()
        try:
            return fn()
        finally:
            steps.append((idx, t, clock()))

    step(None, workload.start_pass)
    for idx in order:
        try:
            ok = step(idx, lambda: workload.run_item(items[idx]))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed.add(idx)
    try:
        result = step(None, workload.finish_pass)
        if not result["ok"]:
            print(f"{workload.name}: a cross-item check failed",
                  file=sys.stderr)
            failed.update(order)
        if "digest" in result and result["digest"] != refs.get("digest"):
            print(f"{workload.name}: output digest {result['digest']} "
                  f"differs from the reference", file=sys.stderr)
            failed.update(order)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failed.update(order)
    if len(order) != refs["items"]:
        print(f"{workload.name}: {len(order)} items, reference has "
              f"{refs['items']}", file=sys.stderr)
        failed.update(order)
    if meter:
        meter.calibrate()
    scaled = [(idx, (end - start) * (meter.scale(start, end) if meter else 1))
              for idx, start, end in steps]
    return {"wall_s": sum(d for _, d in scaled),
            "latency_s": [d for idx, d in scaled if idx is not None],
            "raw_wall_s": sum(end - start for _, start, end in steps),
            "raw_latency_s": [end - start for idx, start, end in steps
                              if idx is not None],
            "steps": steps, "order": order, "failed": len(failed),
            "attempted": len(order)}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(args) -> int:
    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    import cuntzlab
    import numpy
    from cuntzlab.dynamics import JoinDynamics

    if not Path(cuntzlab.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cuntzlab imported from {cuntzlab.__file__}")

    import tracing
    from meter import Meter
    from workloads import WORKLOADS

    refs = json.loads((BENCH / "refs.json").read_text())[args.workload]
    tap = tracing.JoinTap()
    taps = tracing.Patcher()
    tap.install(taps, JoinDynamics)
    workload = WORKLOADS[args.workload](tap)
    items = workload.items()
    rng = random.Random(args.seed)
    meter = Meter() if workload.corrected else None
    passes, tracer = [], None

    def one_pass():
        order = list(range(len(items)))
        rng.shuffle(order)
        passes.append(run_pass(workload, items, order, refs, meter))

    try:
        if args.trace:
            one_pass()
            tap.records.clear()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                one_pass()
            finally:
                tracer.restore()
        else:
            start = time.perf_counter()
            while True:
                one_pass()
                elapsed = time.perf_counter() - start
                next_end = elapsed * (len(passes) + 1) / len(passes)
                if (len(passes) >= MIN_PASSES[args.workload]
                        and next_end > args.seconds):
                    break
    finally:
        taps.restore()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0
    latencies = [x for p in passes for x in p["latency_s"]]
    tail_pct = tail_percentile(MIN_PASSES[args.workload] * len(items))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = []
    if args.trace:
        metrics = tracer.layer_metrics(passes[1]["raw_wall_s"])
        metrics["trace.overhead_s"] = passes[1]["wall_s"] - passes[0]["wall_s"]
        joins = tracing.join_stats(tap.records)
        for key, value in joins.items():
            metrics["dynamics.join." + key] = value
        listed = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans_{args.workload}_seed{args.seed}.json.gz")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "item_p50_ms": 1000 * statistics.median(latencies),
            "item_tail_ms": 1000 * float(numpy.percentile(latencies, tail_pct)),
            "peak_rss_mb": peak_rss_mb,
        }
        listed = spec["end_to_end"]
        lines.append(f"{args.workload} item_tail_ms is p{tail_pct:.4g} of "
                     f"{len(latencies)} items")
    lines.append(f"{args.workload} fail_ratio {failed / attempted:g} "
                 f"({failed} of {attempted} items failed)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in listed}}
    for name, entry in result["metrics"].items():
        lines.append(f"{args.workload} {name} {entry['value']:.6g} "
                     f"{entry['unit']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "setup_s_samples": setup, "tail_percentile": tail_pct,
        "passes": passes,
        "kernel": {"at": meter.at, "kernel_s": meter.kernel_s} if meter else None,
        "join_counts": tracing.join_stats(tap.records),
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; nonzero if any fails."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print("\n".join(out.stdout.splitlines()[:-1]), flush=True)
        if out.returncode != 0:
            print(f"{name}: FAILED (exit {out.returncode})", flush=True)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cuntzlab" / "__init__.py").is_file():
        print(f"no cuntzlab sources under {SRC}", file=sys.stderr)
        return 2
    for key in THREAD_ENV:
        os.environ[key] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
