"""Every workload runs end to end at a smoke size, traced and untraced."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads

SMOKE = workloads.Sizes(
    setup_repeats=1, train_steps=6,
    gradcheck_encoder=(("dim", 8), ("slot_dim", 8), ("num_slots", 2), ("slot_iters", 1),
                       ("text_vocab", 32), ("text_len", 8)),
    short_train_steps=2, serve_images=40, serve_queries=30, nav_images=40,
    nav_episodes=20, nav_layouts=2, grid_side=32, instances_per_noun=2)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks_untraced(name, tmp_path):
    result = workloads.run(name, 3, 0.0, False, SMOKE, str(tmp_path / "work"), str(tmp_path))
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    assert [m for m in result["metrics"]] == [m for m, _ in workloads.END_TO_END]
    assert all(value > 0 for value, _ in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    result = workloads.run(name, 3, 0.0, True, SMOKE, str(tmp_path / "work"), str(tmp_path))
    assert result["problems"] == []
    assert list(result["metrics"]) == [m for m, _ in tracing.LAYER_METRICS]
    values = {m: v for m, (v, _) in result["metrics"].items()}
    if name == "train":
        assert values["encoder.build_image_calls_per_step"] == 8.0
        assert values["autodiff.nodes_per_step"] > 0
        assert values["navsim.plan_path_calls_per_episode"] == 0.0
    if name == "gradcheck":
        assert values["autodiff.fd_probe_s"] > 0
        assert values["autodiff.gradient_ms_per_step"] == 0.0
    if name == "serve":
        assert values["retrieval.topk_ms_per_query"] > 0
        assert values["harness.train_io_ms"] == 0.0
    if name == "navigate":
        assert values["navsim.plan_path_calls_per_episode"] > 0
        assert values["objectives.hungarian_ms_per_step"] == 0.0
    path = tmp_path / "trace.json"
    result["tracer"].write(str(path), {"workload": name})
    spans = json.loads(path.read_text())["spans"]
    assert spans and set(spans[0]) == {"name", "start", "end", "parent", "request", "phase"}


@pytest.mark.parametrize("name", ["serve", "navigate"])
def test_same_seed_gives_the_same_inputs(name, tmp_path):
    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    ctx = workloads.Context(5, 0, SMOKE, "", "")
    first = workloads.WORKLOADS[name].prepare(ctx, str(tmp_path / "a"))
    again = workloads.WORKLOADS[name].prepare(ctx, str(tmp_path / "b"))
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert first.get("specs") == again.get("specs")
    assert first.get("queries") == again.get("queries")


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

