"""Self-tests of the benchmark.  They check structure and counts, never timings.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs in smoke mode (a few small operations per phase): once
untraced and twice traced, all on the same seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5
# Counts that must repeat exactly between two traced runs of one seed.
COUNTS = [
    "numerics.ops.graph_nodes",
    "numerics.ops.calls",
    "numerics.flops",
    "diagnostics.survey.forwards",
    "diagnostics.attention_distance.calls",
] + [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".calls")]
# Forward FLOPs of one batch-16 pass, from flops_report at the reference commit.
FORWARD_FLOPS = {"train-split": 82_509_824, "train-dense": 135_593_984, "infer": 82_509_824}


def bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parsed(workload: str, trace: int):
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return details, result


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    workload = request.param
    plain = parsed(workload, 0)
    traced = [parsed(workload, 1) for _ in range(2)]
    spans = json.loads((HERE / "_out" / f"spans-{workload}.json").read_text())["spans"]
    return workload, plain, traced, spans


def values(result) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_result_names_and_units_follow_benchmark_json(runs):
    _, plain, traced, _ = runs
    for (_, result), section in [(plain, "end_to_end"), (traced[0], "per_layer")]:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [(m["name"], m["unit"]) for m in SPEC[section]]
    assert all(v > 0 for v in values(plain[1]).values()), "an end-to-end metric read 0"


def test_counts_repeat_across_traced_runs(runs):
    _, _, traced, _ = runs
    first, second = values(traced[0][1]), values(traced[1][1])
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}


def test_same_seed_gives_identical_losses(runs):
    workload, plain, traced, _ = runs
    losses = [run[0]["first_losses"] for run in (plain, *traced)]
    assert losses[0] == losses[1] == losses[2]
    assert bool(losses[0]) == workload.startswith("train")


def test_spans_have_nonnegative_self_time(runs):
    _, _, _, spans = runs
    child = [0] * len(spans)
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        assert end >= start
        if parent >= 0:
            assert parent < i
            child[parent] += end - start
    assert all(end - start - child[i] >= 0 for i, (_, start, end, *_) in enumerate(spans))


def test_layer_counts_and_flops(runs):
    workload, _, traced, _ = runs
    m = values(traced[0][1])
    assert m["numerics.flops"] == FORWARD_FLOPS[workload]
    if workload == "train-dense":
        assert m["block.bridge_branch.calls"] == 0 and m["block.bridge.flops"] == 0
    else:
        assert m["block.bridge_branch.calls"] == 4 and m["block.bridge.flops"] > 0
    if workload == "infer":
        assert m["numerics.tape.bwd_ms"] == 0 and m["numerics.tape.self_ms"] == 0
        assert m["numerics.ops.graph_nodes"] == 0
    else:
        assert m["numerics.tape.bwd_ms"] > 0 and m["numerics.ops.graph_nodes"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    out = bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
