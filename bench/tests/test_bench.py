"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_nested_spans():
    # a [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 6]
    names = ["a", "b", "c", "d"]
    calls, self_s = tracing.self_times(
        name_id=[0, 1, 2, 3], start=[0, 1, 4, 5], end=[10, 3, 8, 6],
        parent=[-1, 0, 0, 2], n_names=len(names))
    assert list(calls) == [1, 1, 1, 1]
    assert list(self_s) == [4, 2, 3, 1]


def test_self_times_sum_repeated_names():
    calls, self_s = tracing.self_times(
        name_id=[0, 1, 1], start=[0, 1, 3], end=[5, 2, 4.5],
        parent=[-1, 0, 0], n_names=2)
    assert list(calls) == [1, 2]
    assert self_s[0] == pytest.approx(2.5) and self_s[1] == pytest.approx(2.5)


def test_join_stats_from_counts():
    # N = 2, one extra letter per step, depth 1: steps n = 2, 3, 4 scan
    # 2^2, 2^3 and 2^4 words; the count stops growing at n = 3, so the
    # step n = 4 is waste.
    report = SimpleNamespace(p=1, counts=[(1, 2), (2, 4), (3, 4), (4, 4)])
    stats = tracing.join_stats([(2, 1, [report])])
    assert stats == {"steps": 3, "words": 28, "stable_waste_share": 16 / 28}


def test_traced_pass_restores_every_original():
    from cuntzlab.dynamics import JoinDynamics

    tap, taps = tracing.JoinTap(), tracing.Patcher()
    tap.install(taps, JoinDynamics)
    tracer = tracing.Tracer()
    tracer.install()
    before = {}  # (owner, attribute) -> the object held before any hook
    for owner, attr, original in taps.saved() + tracer.wrapped():
        before.setdefault((owner, attr), original)
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in before.items())
        table1 = workloads.Table1(tap)
        table1.start_pass()
        assert table1.run_item(((), "0", "0"))
        ef = workloads.EFDense(tap)
        ef.start_pass()
        assert ef.run_item((1, 2))
        sparse = workloads.SparseImages(tap)
        sparse.start_pass()
        assert sparse.run_item((1, (1, 2), (2, 1)))
    finally:
        tracer.restore()
        taps.restore()
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in before.items())
    metrics = tracer.layer_metrics(wall_s=1.0)
    assert metrics["dynamics.block_map.builds"] > 0
    assert metrics["product_masa.ef_projection.calls"] == 1
    assert metrics["endomorphism.theta.calls"] > 0
    assert metrics["scalars.ops"] > 0
    assert all(math.isfinite(v) for v in metrics.values())


def _copy_tree(dest, with_src=True):
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run(cwd, workload="sparse_images"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    _copy_tree(tmp_path)
    refs_path = tmp_path / "bench" / "refs.json"
    refs = json.loads(refs_path.read_text())
    refs["sparse_images"]["digest"] = "0" * 64
    refs_path.write_text(json.dumps(refs))
    out = _run(tmp_path)
    assert out.returncode != 0
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    _copy_tree(tmp_path, with_src=False)
    out = _run(tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_meter_scales_by_nearby_kernel_times():
    import meter

    m = meter.Meter()
    m.at = [0.0, 1.0, 1.1, 5.0]
    m.kernel_s = [meter.NOMINAL_S, 2 * meter.NOMINAL_S,
                  2 * meter.NOMINAL_S, meter.NOMINAL_S / 2]
    # an interval at [1.05, 1.08] sees the two timings at 1.0 and 1.1,
    # which ran at half the nominal speed
    assert m.scale(1.05, 1.08) == pytest.approx(0.5)
    assert m.scale(5.0, 5.2) == pytest.approx(2.0)
