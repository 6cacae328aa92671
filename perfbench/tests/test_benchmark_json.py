"""BENCHMARK.json names exactly what the benchmark reports."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run

ROOT = Path(__file__).resolve().parents[2]


def _doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_and_metrics_match_the_code():
    doc = _doc()
    assert [w["name"] for w in doc["workloads"]] == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.PER_LAYER
    assert doc["command"] == ["python3", "perfbench/run.py"]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_time_metric_has_a_bucket_and_every_count_a_counter():
    names = {name for name, _ in layers.PER_LAYER}
    assert set(layers.TIME_BUCKETS) <= names
    assert set(layers.COUNTS) <= names


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pme-p8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_samples_are_scaled_to_the_reference_speed(tmp_path):
    r = run.Run("pme-p8", 1, 6, tmp_path)
    r.slowdown = 2.0  # a host running at half the reference speed
    r.sample("setup_s", 4.0)
    r.sample("md_steps_per_s", 5.0)
    r.sample("analyze_s", 3.0, slowdown=1.5)
    assert r.samples == {"setup_s": [2.0], "md_steps_per_s": [10.0], "analyze_s": [2.0]}
    assert r.unscaled == {"setup_s": [4.0], "md_steps_per_s": [5.0], "analyze_s": [3.0]}
