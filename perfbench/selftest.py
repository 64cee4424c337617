"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name does not match ``test_*.py`` on purpose: the repository's
tier-1 run collects every such file under the root, and these tests start
benchmark runs that take about half a minute in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*argv) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    lines, result = _bench("--workload", "tbg_stream", "--seed", "3", "--seconds", "0.1")
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    text = "\n".join(lines[:-1])
    for name in list(declared) + ["latency_tail_ms", "failed_frac", "residual_max"]:
        assert f"  {name} " in text
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_printed_with_its_unit():
    lines, result = _bench("--workload", "tbg_stream", "--seed", "3", "--seconds", "1", "--trace", "1")
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    text = "\n".join(lines[:-1])
    for name in declared:
        assert f"  {name} " in text
    metrics = result["metrics"]
    assert metrics["algebra.pi_calls"]["value"] > 0
    assert metrics["twist.verify_self_s"]["value"] > 0  # wrapped in workloads too


def test_wrong_expected_verdict_raises_failed_frac():
    g = workloads.draw_geometry(np.random.default_rng(0), 2)
    right = workloads.Op("pass", workloads._tbg_op(g, negative=False), "")
    wrong = workloads.Op("pass expected to fail", workloads._tbg_op(g, negative=True), "")
    results = run.run_blocks(None, 0, [right, right, wrong, right], nblocks=1)
    summary = run.summarize(results)
    assert summary["attempted"] == 4 and summary["failed"] == 1

    bad = workloads.perturb_order_one(g, np.random.default_rng(1))
    negative = workloads.Op("neg", workloads._tbg_op(bad, negative=True), "")
    assert run.summarize(run.run_blocks(None, 0, [negative], nblocks=1))["failed"] == 0
    mislabelled = workloads.Op("neg as pass", workloads._tbg_op(bad, negative=False), "")
    assert run.summarize(run.run_blocks(None, 0, [mislabelled], nblocks=1))["failed"] == 1


def test_seed_alone_determines_the_inputs(tmp_path):
    for wl in (workloads.TbgStream(), workloads.FluctChain(), workloads.SmPoint()):
        first = [op.digest for op in wl.block(7, 1)]
        assert first == [op.digest for op in wl.block(7, 1)], wl.name
        assert first != [op.digest for op in wl.block(8, 1)], wl.name
    digests = []
    for sub in ("a", "b"):
        os.makedirs(tmp_path / sub)
        cli = workloads.CliMix(str(tmp_path / sub), run.SRC)
        cli.block(7, 0)
        digests.append(cli.file_digest())
    assert digests[0] == digests[1]


def test_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tbg_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
