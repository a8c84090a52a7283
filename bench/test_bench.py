"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import env

env.add_src_path()

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload_passes_its_checks(workload):
    result = run.run_workload(workload, seed=7, seconds=0, trace=False,
                              sizes=workloads.TINY)
    assert result["failures"] == []
    assert result["attempted"] >= 1
    assert all(v > 0 for v in result["end_to_end"].values())


def test_traced_run_reports_every_layer_metric():
    result = run.run_workload("queries-short", seed=7, seconds=0, trace=True,
                              sizes=workloads.TINY, time_setup=False)
    assert result["failed"] == 0
    assert set(result["layers"]) == set(run.LAYER_UNITS)
    names = {span["name"] for span in result["spans"]}
    assert {"cli.main", "channels.load_channel", "moments.transfer_grids",
            "moments.asymptotic_first_moment"} <= names
    assert result["layers"]["moments.node_steps"] > 0


def test_perturbed_moment_series_counts_as_failure(monkeypatch):
    from dqwalk import cli

    real = cli.moment_series

    def perturbed(*args, **kwargs):
        series = real(*args, **kwargs)
        second = series.second.copy()
        second[3] += 1e-6
        return dataclasses.replace(series, second=second,
                                   variance=second - series.first**2)

    monkeypatch.setattr(cli, "moment_series", perturbed)
    result = run.run_workload("series-long", seed=7, seconds=0, trace=False,
                              sizes=workloads.TINY, time_setup=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert "oracle" in result["failures"][0]["reason"]


def test_custom_channel_is_complete_with_hop_two():
    from dqwalk.channels import channel_from_dict, validate_completeness

    terms = workloads.custom_channel_terms(workloads._rng("custom", 1, 0))
    channel = channel_from_dict({"label": "custom", "terms": terms})
    validate_completeness(channel)
    assert channel.max_hop == 2


def test_same_seed_same_inputs(tmp_path):
    def inputs(seed):
        calls = workloads.make_round("queries-short", seed, 0, str(tmp_path),
                                     workloads.TINY)
        return [(c.argv, c.spec) for c in calls]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_command_line_prints_contract_json_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         "queries-short", "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert set(last["metrics"]) == set(run.LAYER_UNITS)
    for name in run.END_TO_END_UNITS:
        assert name in proc.stdout


def test_host_scale_survives_a_stall_longer_than_the_window():
    import hostspeed

    host = hostspeed.HostSpeed("small-arrays")
    start = time.perf_counter()
    host.after(0.01)
    # As if the samples after the operation landed more than the window later.
    host.stamps = [s + 2 * hostspeed.CAL_WINDOW_S for s in host.stamps]
    assert host.scale(start, start + 0.01) > 0
