"""Release gates: one test per promised property, at its stated tolerance."""

import contextlib
import io
import os
import re
import time

import numpy as np
import pytest

from slotnav.cli import main
from slotnav.encoder import EncoderConfig, init_params, sample_slots
from slotnav.fixtures import (NAV_CELL_M, NAV_START, NAV_WORLD_TEXT, nav_memory_entries,
                              nav_query_records, nav_query_rows, ortho_indexes)
from slotnav.navsim import (FovParams, GridWorld, Pose, execute_episode, parse_world,
                            plan_path, success_rate)
from slotnav.objectives import (Annotation, AnnotationSet, LossWeights,
                                TrainExample, hungarian, pairwise_cost,
                                total_loss_graph)
from slotnav.retrieval import GroundTruth, average_recall, build_index, topk_images

from _oracles import (breadth_first_path, brute_force_assignment, giou, iou,
                      l1_box, random_box, ranked_ids, slot_attention)


# ----------------------------------------------------------------------
# Gradient fidelity


def _desk_batch_loss():
    """The store and full objective of the desk batch the gradient gate
    checks."""
    # Desk widths; patch 4 on 8x8 images keeps the coordinate sweep inside
    # the minute budget without shrinking dim, slots, or iterations.
    cfg = EncoderConfig(patch_size=4, max_tokens=4)
    assert (cfg.dim, cfg.num_slots, cfg.slot_iters) == (32, 4, 3)
    store = init_params(cfg, seed=2)

    def example(seed, captions):
        image = np.random.default_rng(seed).random((8, 8, 3))
        anns = tuple(Annotation(caption=c,
                                box=random_box(np.random.default_rng(seed + 7)))
                     for c in captions)
        return TrainExample(image=image, annotations=AnnotationSet(anns))

    batch = [example(10, ["red sofa", "green lamp"]),
             example(11, ["wooden table", "white mirror"])]
    return store, total_loss_graph(batch, store, LossWeights(tau=0.5), cfg, seed=3)


def test_gradient_fidelity_full_loss_desk_batch():
    store, out = _desk_batch_loss()
    start = time.perf_counter()
    report = out.graph.finite_difference_check(out.total, step=1e-5,
                                               tolerance=1e-4)
    elapsed = time.perf_counter() - start
    assert set(report.per_parameter) == set(store.trainable_names())
    # Every coordinate is probed; none is dropped or skipped.
    assert report.checked_coordinates == 35460
    assert report.skipped_coordinates == 0
    assert report.passed, f"max rel error {report.max_relative_error:.3e} " \
                          f"({report.worst.parameter if report.worst else 'none'})"
    assert report.max_relative_error < 1e-4
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"gradient fidelity: max rel {report.max_relative_error:.3e} over "
          f"{report.checked_coordinates} coordinates in {elapsed:.1f}s")


def test_gradient_sweep_on_every_cpu_equals_a_one_cpu_sweep_bit_for_bit(monkeypatch):
    _, out = _desk_batch_loss()
    every = out.graph.finite_difference_check(out.total, step=1e-5, tolerance=1e-4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = out.graph.finite_difference_check(out.total, step=1e-5, tolerance=1e-4)
    assert every == one
    # Where the platform has no affinity set, the sweep counts the CPUs.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert out.graph.finite_difference_check(out.total, step=1e-5, tolerance=1e-4) == one
    assert (one.checked_coordinates, one.skipped_coordinates) == (35460, 0)


# ----------------------------------------------------------------------
# Hungarian matching


def test_hungarian_equals_brute_force_500_matrices():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    for trial in range(500):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        if trial % 3 == 0:
            cost = rng.integers(0, 4, size=(k, n)).astype(float)
        elif trial % 3 == 1:
            cost = rng.random((k, n))
        else:
            cost = rng.normal(size=(k, n))
        expected_total, expected_pairs = brute_force_assignment(cost)
        out = hungarian([cost])[0]
        assert out.cost == expected_total, f"trial {trial}"
        assert out.pairs == expected_pairs, f"trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"500 matrices took {elapsed:.1f}s"
    print(f"hungarian: 500 matrices exact in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# GIoU arithmetic


def test_giou_worked_examples_and_random_properties():
    # pairwise_cost's literal convention is L1 plus GIoU.
    def literal(a, b):
        return pairwise_cost([a], [b], literal_giou_cost=True)[0, 0]

    assert literal((0, 0, 2, 2), (0, 0, 2, 2)) == pytest.approx(0 + 1.0, abs=1e-12)
    # L1 4; inter 1, union 7, hull 9.
    assert literal((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(4 + 1 / 7 - 2 / 9,
                                                                abs=1e-12)
    # L1 8; disjoint: union 2, hull 9.
    assert literal((0, 0, 1, 1), (2, 2, 3, 3)) == pytest.approx(8 + 0 - 7 / 9,
                                                                abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        a, b = random_box(rng), random_box(rng)
        g = giou(a, b)
        assert literal(a, b) == l1_box(a, b) + g
        assert -1.0 < g <= 1.0
        assert g <= iou(a, b) + 1e-12
        assert g == pytest.approx(giou(b, a), abs=1e-12)
    print("giou: 3 worked examples at 1e-12, 10000 property pairs")


# ----------------------------------------------------------------------
# Slot attention


def test_slot_attention_invariants_reference_scale():
    cfg = EncoderConfig(num_slots=10, slot_iters=20, max_tokens=16)
    store = init_params(cfg, seed=0)
    worst_rows = worst_cols = worst_perm = 0.0
    for instance in range(100):
        rng = np.random.default_rng(100 + instance)
        tokens = rng.normal(size=(16, cfg.dim))
        init = sample_slots(cfg, 300 + instance)
        base = slot_attention(tokens, store, cfg, init)
        assert len(base.history) == cfg.slot_iters
        for state in base.history:
            assert np.all(np.isfinite(state.slots))
            rows = float(np.abs(state.attention.sum(axis=1) - 1.0).max())
            cols = float(np.abs(state.weights.sum(axis=0) - 1.0).max())
            assert rows < 1e-9 and cols < 1e-9, f"instance {instance}"
            worst_rows = max(worst_rows, rows)
            worst_cols = max(worst_cols, cols)
        perm = rng.permutation(cfg.num_slots)
        swapped = slot_attention(tokens, store, cfg, init[perm])
        drift = float(np.abs(swapped.slots - base.slots[perm]).max())
        assert drift < 1e-9, f"instance {instance}: {drift:.3e}"
        worst_perm = max(worst_perm, drift)
    print(f"slot attention: K=10 U=20, 100 instances, row {worst_rows:.1e} "
          f"col {worst_cols:.1e} perm {worst_perm:.1e}")


# ----------------------------------------------------------------------
# Retrieval


def test_retrieval_topk_oracle_and_recall():
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = int(rng.integers(2, 41))
        d = int(rng.integers(2, 17))
        index = build_index(rng.normal(size=(n, d)),
                            [f"i{j:02d}" for j in range(n)])
        query = rng.normal(size=d)
        k = int(rng.integers(1, n + 1))
        expected = ranked_ids(index.matrix @ query, index.ids)[:k]
        assert topk_images(query, index, k) == expected, f"trial {trial}"

    def ranked(queries, index, k):
        return {qid: topk_images(row, index, k) for qid, row in zip(queries.ids, queries.matrix)}

    items, queries, gt = ortho_indexes()
    report = average_recall(ranked(queries, items, 1), gt, 1)
    assert report.values[1] == 1.0

    index = build_index(rng.normal(size=(12, 6)),
                        [f"i{j:02d}" for j in range(12)])
    random_queries = build_index(rng.normal(size=(9, 6)),
                                 [f"q{j}" for j in range(9)])
    relevant = {qid: frozenset(rng.choice(index.ids,
                                          size=int(rng.integers(1, 4)),
                                          replace=False).tolist())
                for qid in random_queries.ids}
    results = ranked(random_queries, index, 12)
    sweep = average_recall(results, GroundTruth(relevant=relevant),
                           [1, 2, 3, 5, 8, 12])
    series = [sweep.values[k] for k in (1, 2, 3, 5, 8, 12)]
    assert series == sorted(series)
    assert series[-1] == 1.0
    print("retrieval: 200 top-k oracle matrices, ortho AR@1 1.0, AR@k monotone")


# ----------------------------------------------------------------------
# Training


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    """`slotnav ablate` on the bundled fixture: its output by line label,
    and its wall time."""
    fx = tmp_path_factory.mktemp("ablate") / "fx"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--out", str(fx)]) == 0
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert main(["ablate", "--data", str(fx)]) == 0
    elapsed = time.perf_counter() - start
    return dict(line.rsplit(": ", 1) if ": " in line else line.split(" ", 1)
                for line in out.getvalue().splitlines()), elapsed


def test_overfit_reaches_perfect_recall_and_beats_contrastive_only(ablation):
    lines, elapsed = ablation
    pattern = r"loss (\d+\.\d{6}) ar@1 (\d\.\d{4})"
    full = re.fullmatch(pattern, lines["full objective"])
    only = re.fullmatch(pattern, lines["contrastive only"])
    assert full and only, lines
    assert float(full.group(2)) == 1.0
    assert float(only.group(1)) > float(full.group(1))
    assert elapsed < 300.0, f"ablation took {elapsed:.1f}s"
    print(f"overfit: AR@1 {full.group(2)}, full loss {full.group(1)} vs "
          f"contrastive-only {only.group(1)} in {elapsed:.1f}s")


def test_noun_first_template_direction(ablation):
    # Reported direction on the bundled fixture, not a universal inequality:
    # the text tower is frozen, so training cannot change this comparison.
    lines, _ = ablation
    on_qs = float(re.fullmatch(r"ar@1 (\d\.\d{4})", lines["noun+sentence"]).group(1))
    qs_only = float(re.fullmatch(r"ar@1 (\d\.\d{4})", lines["sentence only"]).group(1))
    assert on_qs >= qs_only
    print(f"templates: noun+sentence AR@1 {on_qs:.4f} >= sentence-only "
          f"{qs_only:.4f} on {lines['queries']} queries")


# ----------------------------------------------------------------------
# Navigation


def _center_pose(world, cell, theta=0.0):
    x, y = world.cell_center(cell)
    return Pose(x=x, y=y, theta=theta)


def _fixture_episodes(fov=FovParams()):
    world = parse_world(NAV_WORLD_TEXT, cell_m=NAV_CELL_M)
    memory = nav_memory_entries()
    _, rows = nav_query_rows()
    start = Pose(**NAV_START)
    return [execute_episode(record["sentence"], record["noun"], memory, world,
                            record["k"], lambda _prompt, row=row: row, start,
                            fov=fov)
            for record, row in zip(nav_query_records(), rows)]


def test_navigation_planner_oracle_and_fixture_rates():
    rng = np.random.default_rng(53)
    trials = 0
    while trials < 200:
        shape = (int(rng.integers(6, 17)), int(rng.integers(6, 17)))
        grid = rng.random(shape) < rng.uniform(0.05, 0.35)
        free = np.argwhere(~grid)
        if len(free) < 2:
            continue
        pick = rng.choice(len(free), size=2, replace=False)
        start_cell = (int(free[pick[0]][1]), int(free[pick[0]][0]))
        goal_cell = (int(free[pick[1]][1]), int(free[pick[1]][0]))
        world = GridWorld(grid=grid, cell_m=0.25)
        steps = plan_path(world, _center_pose(world, start_cell),
                          _center_pose(world, goal_cell))
        oracle = breadth_first_path(grid, start_cell, goal_cell)
        assert steps == (len(oracle) - 1 if oracle else -1), f"trial {trials}"
        trials += 1

    episodes = _fixture_episodes()
    assert success_rate(episodes, 1.0).success_rate == 0.5
    assert success_rate(episodes, 2.0).success_rate == 0.75
    assert success_rate(episodes, 1.0).fov_rate == 0.75
    sweep = [success_rate(episodes, r).success_rate
             for r in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)]
    assert sweep == sorted(sweep)
    print("navigation: 200 planner oracle worlds, fixture SR 0.50/0.75, "
          "fov rate 0.75")


# ----------------------------------------------------------------------
# Determinism


def test_cli_reruns_are_bit_identical(tmp_path, capsys):
    fx = tmp_path / "fx"
    assert main(["fixtures", "--out", str(fx)]) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text("lr = 0.001\ntotal_steps = 3\nbatch_size = 4\n",
                   encoding="utf-8")
    capsys.readouterr()

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    train_out = []
    for out_dir in (tmp_path / "run_a", tmp_path / "run_b"):
        train_out.append(run(["--config", str(cfg), "train",
                              "--data", str(fx), "--out", str(out_dir)]))
    # Summary lines after the first three name the output directory.
    assert train_out[0].splitlines()[:3] == train_out[1].splitlines()[:3]
    for name in ("checkpoint.lzp", "losses.log"):
        assert ((tmp_path / "run_a" / name).read_bytes()
                == (tmp_path / "run_b" / name).read_bytes())

    eval_argv = ["eval-retrieval", "--index", str(fx / "ortho_index.lze"),
                 "--queries", str(fx / "ortho_queries.lze"),
                 "--gt", str(fx / "ortho_gt.tsv"), "--ks", "1,5"]
    assert run(eval_argv) == run(eval_argv)

    log = tmp_path / "nav.jsonl"
    nav_logs = []
    nav_out = []
    for _ in range(2):
        nav_out.append(run(["nav-eval", "--world", str(fx / "world.txt"),
                            "--memory", str(fx / "nav_memory.lze"),
                            "--poses", str(fx / "nav_memory_poses.jsonl"),
                            "--queries", str(fx / "nav_queries.jsonl"),
                            "--query-index", str(fx / "nav_queries.lze"),
                            "--log", str(log)]))
        nav_logs.append(log.read_bytes())
    assert nav_out[0] == nav_out[1]
    assert nav_logs[0] == nav_logs[1]
    print("determinism: train, eval-retrieval, nav-eval reruns bit-identical")
