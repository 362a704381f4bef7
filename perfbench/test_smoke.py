"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

It copies the benchmark and the package sources into a temporary
checkout, runs every workload at toy size with and without tracing,
and checks the result line against BENCHMARK.json. It also checks that
a directory holding only the benchmark fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_bank", "eval_quality", "sweep_classify")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def make_checkout(path, with_src=True):
    shutil.copytree(HERE, path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return path


def run(checkout, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "1", "--size", "toy", *args],
        cwd=checkout, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return make_checkout(tmp_path_factory.mktemp("checkout"))


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_metrics(checkout):
    result = result_line(run(checkout, "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    wanted = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    for workload in WORKLOADS:
        for name, unit in wanted.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert metric["value"] > 0


def test_traced_layers_account_for_wall(checkout):
    result = result_line(run(checkout, "--trace", "1"))
    assert result["correct"]
    wanted = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    for workload in WORKLOADS:
        got = {k.split(".", 1)[1]: v for k, v in result["metrics"].items()
               if k.startswith(workload + ".")}
        assert {k: v["unit"] for k, v in got.items()} == wanted
        assert got["crossbar.tile_reads_per_image"]["value"] == \
            got["hwcost.count_tiles"]["value"] == 52
        with open(checkout / ".bench_work" / workload / "result.json") as f:
            record = json.load(f)
        for p in record["passes"]:
            if p["traced"]:
                self_sum = sum(v for k, v in p["layer"].items()
                               if k.endswith("_s"))
                assert self_sum == pytest.approx(p["traced_wall_s"], rel=1e-9)
                assert p["traced_wall_s"] == pytest.approx(
                    sum(p["times"].values()), rel=0.05)


def test_tracing_and_location_leave_outputs_unchanged(tmp_path):
    digests = []
    for name, trace in (("plain", "0"), ("traced", "1")):
        checkout = make_checkout(tmp_path / name)
        result_line(run(checkout, "--trace", trace))
        digests.append({})
        for workload in WORKLOADS:
            path = checkout / ".bench_work" / workload / "result.json"
            with open(path) as f:
                digests[-1][workload] = json.load(f)["digests"]
    assert digests[0] == digests[1]


def test_fails_without_sources(tmp_path):
    bare = make_checkout(tmp_path / "bare", with_src=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_bank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
