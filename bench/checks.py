"""Output checks made apart from the program.

Each check recomputes what it can with numpy and the standard library
(rankings, recalls, BFS distances, file contents) and returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from typing import Mapping, Sequence

import numpy as np

# Oracle scores closer than this may come in either order: the program's
# rankers score with different reductions (a matrix-vector product in
# retrieval, one dot product per entry in navsim) and differ in the last bit.
TIE_BAND = 1e-12


# ----------------------------------------------------------------------
# Files


def read_lze(path: str) -> tuple[np.ndarray, list[str]]:
    """Raw float32 rows and ids of an LZE1 index file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"LZE1":
        raise ValueError(f"{path}: not an LZE1 file")
    count, dim = struct.unpack_from("<II", data, 4)
    end = 12 + 4 * count * dim
    rows = np.frombuffer(data, dtype="<f4", count=count * dim, offset=12)
    ids = data[end:].decode("utf-8").split("\n")
    if len(ids) != count + 1 or ids[-1] != "":
        raise ValueError(f"{path}: expected {count} newline-terminated ids")
    return rows.reshape(count, dim), ids[:-1]


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """float64 copy of the rows scaled to unit norm."""
    rows = rows.astype(np.float64)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def index_failures(rows: np.ndarray, ids: Sequence[str],
                   expected_ids: Sequence[str],
                   embeddings: Mapping[str, np.ndarray]) -> list[str]:
    """LZE1 rows are unit norm, ids are complete, and the sampled in-memory
    embeddings survive the float32 round trip."""
    problems = []
    if list(ids) != list(expected_ids):
        problems.append("index ids differ from the corpus ids")
    norms = np.linalg.norm(rows.astype(np.float64), axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-6)
    if bad.size:
        problems.append(f"{bad.size} index rows are not unit norm (first {ids[bad[0]]})")
    position = {item: i for i, item in enumerate(ids)}
    for item, vector in embeddings.items():
        row = rows[position[item]].astype(np.float64)
        # One float32 rounding is at most half an ulp: 2**-24 relative.
        limit = 2.0 ** -24 * np.maximum(np.abs(vector), 2.0 ** -126) * 1.0001
        if not np.all(np.abs(row - vector) <= limit):
            problems.append(f"index row {item} differs from its embedding "
                            f"by {float(np.abs(row - vector).max()):.3e}")
    return problems


# ----------------------------------------------------------------------
# Ranking


def oracle_topk(scores: np.ndarray, ids: Sequence[str], k: int) -> list[str]:
    """Descending score, then ascending id."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [ids[i] for i in order[:k]]


def topk_problem(returned: Sequence[str], scores: np.ndarray,
                 ids: Sequence[str], k: int) -> str | None:
    """Why `returned` is not the oracle's top k, allowing near-tie swaps."""
    if list(returned) == oracle_topk(scores, ids, k):
        return None
    position = {item: i for i, item in enumerate(ids)}
    if len(returned) != k or len(set(returned)) != k \
            or any(item not in position for item in returned):
        return f"expected {k} distinct known ids, got {list(returned)}"
    got = [float(scores[position[item]]) for item in returned]
    for rank in range(k - 1):
        if got[rank + 1] > got[rank] + TIE_BAND:
            return (f"{returned[rank]} ({got[rank]!r}) ranked above "
                    f"{returned[rank + 1]} ({got[rank + 1]!r})")
    chosen = set(returned)
    for item, score in zip(ids, scores):
        if item not in chosen and score > got[-1] + TIE_BAND:
            return f"{item} ({float(score)!r}) missing from the top {k}"
    return None


def average_recall(results: Mapping[str, Sequence[str]],
                   relevant: Mapping[str, frozenset[str]],
                   ks: Sequence[int]) -> dict[int, float]:
    return {k: sum(bool(relevant[q] & set(r[:k])) for q, r in results.items())
            / len(results) for k in ks}


def recall_failures(program: Mapping[int, float],
                    oracle: Mapping[int, float]) -> list[str]:
    problems = []
    ks = sorted(oracle)
    if {k: program.get(k) for k in ks} != dict(oracle):
        problems.append(f"AR@k {dict(program)} differs from the oracle's {dict(oracle)}")
    if any(oracle[a] > oracle[b] for a, b in zip(ks, ks[1:])):
        problems.append(f"AR@k decreases with k: {dict(oracle)}")
    return problems


# ----------------------------------------------------------------------
# Training


def loss_log_failures(lines: Sequence[str], weights: Mapping[str, float],
                      steps: int) -> list[str]:
    """Every total is the weighted sum of its components; the loss falls."""
    problems = []
    totals = []
    for n, line in enumerate(lines):
        fields = line.strip().split(",")
        if len(fields) != 6 or int(fields[0]) != n:
            problems.append(f"losses.log line {n + 1} is malformed: {line.strip()!r}")
            continue
        l_c, l_l1, l_giou, l_mc, total = (float(f) for f in fields[1:])
        expected = (weights["alpha"] * l_c + weights["beta"] * l_l1
                    + weights["gamma"] * l_giou + weights["delta"] * l_mc)
        if not abs(total - expected) <= 1e-12 * abs(expected):
            problems.append(f"step {n}: total {total!r} is not the weighted sum "
                            f"{expected!r}")
        totals.append(total)
    if len(lines) != steps:
        problems.append(f"losses.log has {len(lines)} lines, expected {steps}")
    if totals and not totals[-1] < totals[0]:
        problems.append(f"last loss {totals[-1]!r} is not below the first {totals[0]!r}")
    return problems


def self_retrieval_ar1(image_rows: np.ndarray, text_rows: np.ndarray) -> float:
    """Share of captions whose best-scoring image is their own."""
    best = np.argmax(text_rows @ image_rows.T, axis=1)
    return float(np.mean(best == np.arange(len(text_rows))))


def gradcheck_failures(report, expected_coordinates: int,
                       tolerance: float) -> list[str]:
    problems = []
    if not report.max_relative_error < tolerance:
        problems.append(f"max relative error {report.max_relative_error:.3e} "
                        f"is not below {tolerance:g}")
    if report.skipped_coordinates != 0:
        problems.append(f"{report.skipped_coordinates} coordinates skipped")
    if report.checked_coordinates != expected_coordinates:
        problems.append(f"checked {report.checked_coordinates} coordinates, "
                        f"expected {expected_coordinates}")
    return problems


# ----------------------------------------------------------------------
# Navigation


def bfs_steps(free: np.ndarray, start: tuple[int, int],
              goal: tuple[int, int]) -> int | None:
    """4-connected shortest path length between (col, row) cells, or None."""
    if start == goal:
        return 0
    rows, cols = free.shape
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        (col, row), dist = frontier.popleft()
        for nxt in ((col - 1, row), (col + 1, row), (col, row - 1), (col, row + 1)):
            c, r = nxt
            if 0 <= c < cols and 0 <= r < rows and free[r, c] and nxt not in seen:
                if nxt == goal:
                    return dist + 1
                seen.add(nxt)
                frontier.append((nxt, dist + 1))
    return None


def episode_problems(episode, start, free: np.ndarray, cell_m: float,
                     instances: Sequence[tuple[float, float]],
                     max_range: float) -> list[str]:
    """path_cells is the sum of BFS distances along the visited poses, and an
    object in view means the stop pose is within range of an instance."""
    def cell(pose) -> tuple[int, int]:
        return (int(math.floor(pose.x / cell_m)), int(math.floor(pose.y / cell_m)))

    problems = []
    total = 0
    here = cell(start)
    for pose in episode.visited:
        steps = bfs_steps(free, here, cell(pose))
        if steps is None:
            problems.append(f"visited pose {cell(pose)} is unreachable from {here}")
            return problems
        total += steps
        here = cell(pose)
    if total != episode.path_cells:
        problems.append(f"path_cells {episode.path_cells} but BFS gives {total}")
    stop = episode.stop_pose
    if episode.object_in_fov and not any(
            math.hypot(x - stop.x, y - stop.y) <= max_range for x, y in instances):
        problems.append("object in view but no instance within max_range")
    return problems


def success_failures(episodes, program: Mapping[float, float]) -> list[str]:
    """SR at each radius matches a recount and does not fall as radius grows."""
    problems = []
    radii = sorted(program)
    for radius in radii:
        wins = sum(1 for e in episodes if e.object_in_fov and e.distance <= radius)
        if program[radius] != wins / len(episodes):
            problems.append(f"SR@{radius:g} {program[radius]} but recount gives "
                            f"{wins / len(episodes)}")
    if any(program[a] > program[b] for a, b in zip(radii, radii[1:])):
        problems.append(f"SR decreases with radius: {dict(program)}")
    return problems
