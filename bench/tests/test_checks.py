"""Each output check accepts a correct output and rejects a broken one."""

import math

import numpy as np

from slotnav.autodiff import FiniteDifferenceReport
from slotnav.harness import TrainConfig
from slotnav.navsim import EpisodeResult
from slotnav.promptgen import Pose

import checks
import tracing
import workloads

IDS = [f"c{i:05d}" for i in range(6)]


def test_topk_rejects_a_swapped_pair_outside_the_tie_band():
    scores = np.array([0.9, 0.1, 0.5, 0.7, 0.3, 0.2])
    oracle = checks.oracle_topk(scores, IDS, 3)
    assert oracle == ["c00000", "c00003", "c00002"]
    assert checks.topk_problem(oracle, scores, IDS, 3) is None
    swapped = [oracle[0], oracle[2], oracle[1]]
    assert "ranked above" in checks.topk_problem(swapped, scores, IDS, 3)
    missing = oracle[:2] + ["c00004"]
    assert "missing" in checks.topk_problem(missing, scores, IDS, 3)


def test_topk_accepts_either_order_inside_the_tie_band():
    scores = np.array([0.5, 0.5 + 0.5e-12, 0.1, 0.2, 0.3, 0.4])
    assert checks.oracle_topk(scores, IDS, 2) == ["c00001", "c00000"]
    assert checks.topk_problem(["c00000", "c00001"], scores, IDS, 2) is None
    # Exact ties fall inside the band too, whatever the id order.
    tied = np.array([0.5, 0.5, 0.1, 0.2, 0.3, 0.4])
    assert checks.topk_problem(["c00001", "c00000"], tied, IDS, 2) is None


def _episode(path_cells, in_view=True):
    cell_m = 1.0
    visited = [Pose(x=2.5, y=0.5, theta=0.0), Pose(x=2.5, y=2.5, theta=0.0)]
    return EpisodeResult(query="q", ranked_ids=["a", "b"], visited=visited,
                         stop_pose=visited[-1], distance=0.5, object_in_fov=in_view,
                         path_cells=path_cells), cell_m


def test_episode_rejects_a_wrong_path_length():
    free = np.ones((3, 3), dtype=bool)
    free[1, 1] = False  # detour: (0,0) -> (2,0) is 2 steps, (2,0) -> (2,2) is 2
    start = Pose(x=0.5, y=0.5, theta=0.0)
    episode, cell_m = _episode(4)
    assert checks.episode_problems(episode, start, free, cell_m, [(2.5, 2.5)], 3.0) == []
    episode, cell_m = _episode(5)
    problems = checks.episode_problems(episode, start, free, cell_m, [(2.5, 2.5)], 3.0)
    assert problems == ["path_cells 5 but BFS gives 4"]


def test_episode_rejects_an_object_in_view_beyond_range():
    free = np.ones((3, 3), dtype=bool)
    episode, cell_m = _episode(4)
    problems = checks.episode_problems(episode, Pose(x=0.5, y=0.5, theta=0.0), free,
                                       cell_m, [(20.5, 20.5)], 3.0)
    assert problems == ["object in view but no instance within max_range"]


def _report(skipped=0, checked=10, error=1e-6):
    return FiniteDifferenceReport(max_relative_error=error, per_parameter={}, worst=None,
                                  checked_coordinates=checked,
                                  skipped_coordinates=skipped, passed=error < 1e-4)


def test_gradcheck_rejects_a_skipped_coordinate():
    assert checks.gradcheck_failures(_report(), 10, 1e-4) == []
    problems = checks.gradcheck_failures(_report(skipped=1, checked=9), 10, 1e-4)
    assert "1 coordinates skipped" in problems
    assert "checked 9 coordinates, expected 10" in problems
    assert checks.gradcheck_failures(_report(error=2e-4), 10, 1e-4)


def test_loss_log_rejects_a_total_off_its_weighted_sum():
    weights = {"alpha": 1.0, "beta": 5.0, "gamma": 2.0, "delta": 1.0}
    good = ["0,1.0,0.5,0.25,2.0,6.0\n", "1,0.5,0.1,0.1,1.0,2.2\n"]
    assert checks.loss_log_failures(good, weights, 2) == []
    bad = ["0,1.0,0.5,0.25,2.0,6.000001\n", good[1]]
    assert checks.loss_log_failures(bad, weights, 2)[0].startswith("step 0:")
    rising = [good[1].replace("1,", "0,", 1), good[0].replace("0,", "1,", 1)]
    assert "not below" in checks.loss_log_failures(rising, weights, 2)[-1]


def test_recall_and_success_must_not_fall():
    assert checks.recall_failures({1: 0.5, 5: 0.75}, {1: 0.5, 5: 0.75}) == []
    assert checks.recall_failures({1: 0.5, 5: 0.5}, {1: 0.5, 5: 0.75})
    episode, _ = _episode(4)
    near = EpisodeResult(**{**episode.__dict__, "distance": 0.5})
    far = EpisodeResult(**{**episode.__dict__, "distance": 2.0})
    assert checks.success_failures([near, far], {1.0: 0.5, 3.0: 1.0}) == []
    assert checks.success_failures([near, far], {1.0: 0.5, 3.0: 0.5})


def test_index_rows_must_match_their_embeddings_to_float32_rounding():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(3, 8))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    rows = vectors.astype(np.float32)
    ids = ["a", "b", "c"]
    embeddings = {"b": vectors[1]}
    assert checks.index_failures(rows, ids, ids, embeddings) == []
    drifted = rows.copy()
    drifted[1, 0] = np.nextafter(drifted[1, 0], np.float32(2.0), dtype=np.float32)
    drifted[1, 0] = np.nextafter(drifted[1, 0], np.float32(2.0), dtype=np.float32)
    assert checks.index_failures(drifted, ids, ids, embeddings)
    assert checks.index_failures(rows * 2, ids, ids, {})


def test_self_time_subtracts_child_spans():
    spans = [["outer", 0.0, 10.0, -1, 1, "measure", None],
             ["inner", 1.0, 4.0, 0, 1, "measure", None],
             ["inner", 5.0, 6.0, 0, 1, "measure", None]]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]
    table = tracing.self_time_table(spans)
    assert table["inner"]["calls"] == 2
    assert math.isclose(table["outer"]["self_ms"], 6000.0)


def test_forward_passes_count_only_the_step_graph():
    # Two steps; the second step's text graph reuses the id of the first
    # step's freed loss graph and must not count as one of its passes.
    def span(name, request, meta=None, parent=-1):
        return [name, 0.0, 1.0, parent, request, "measure", meta]

    spans = [span("harness.train_step", 1), span("objectives.total_loss_graph", 1, (7, 10), 0),
             span("autodiff.Graph.evaluate", 1, 7, 1), span("autodiff.Graph.gradient", 1, 7, 0),
             span("harness.train_step", 2), span("objectives.total_loss_graph", 2, (8, 10), 4),
             span("autodiff.Graph.evaluate", 2, 7, 5), span("autodiff.Graph.evaluate", 2, 8, 5),
             span("autodiff.Graph.gradient", 2, 8, 4)]
    values = tracing.layer_metrics(spans, 0.0)
    assert values["autodiff.forward_passes_per_step"] == 2.0
    assert values["autodiff.nodes_per_step"] == 10.0


def test_checkpoint_history_compares_only_runs_of_the_same_program(tmp_path, monkeypatch):
    config = TrainConfig.overfit_preset()
    monkeypatch.setattr(workloads, "_program_digest", lambda: "parent")
    assert workloads._same_checkpoint(str(tmp_path), config, {"aa"}) == []
    assert workloads._same_checkpoint(str(tmp_path), config, {"aa"}) == []
    assert "differs" in workloads._same_checkpoint(str(tmp_path), config, {"bb"})[0]
    monkeypatch.setattr(workloads, "_program_digest", lambda: "change")
    assert workloads._same_checkpoint(str(tmp_path), config, {"bb"}) == []
    assert "between rounds" in workloads._same_checkpoint(str(tmp_path), config,
                                                          {"bb", "cc"})[0]

