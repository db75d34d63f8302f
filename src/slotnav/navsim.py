"""Grid-world navigation over an image-pose memory."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .autodiff import LRUCache
from .promptgen import (Pose, build_prompt, normalize_angle, pose_to_json, read_lines,
                        write_jsonl)
from .retrieval import top_rows

Array = np.ndarray

Cell = tuple[int, int]

DEFAULT_HALF_ANGLE = math.pi / 4.0
DEFAULT_MAX_RANGE = 3.0
DEFAULT_CELL_M = 0.25
FIELD_CACHE_SIZE = 64  # distance fields kept per world, least recently used dropped
STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


# ----------------------------------------------------------------------
# Domain types

@dataclass(frozen=True)
class MemoryEntry:
    """One stored observation: image id, capture pose, unit embedding."""

    image_id: str
    pose: Pose
    embedding: Array

    def __post_init__(self) -> None:
        vec = np.asarray(self.embedding, dtype=np.float64).reshape(-1)
        if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-6:
            raise ValueError(f"memory embedding for {self.image_id!r} is not unit norm")
        vec.flags.writeable = False
        object.__setattr__(self, "embedding", vec)


@dataclass(frozen=True)
class WorldObject:
    """Named object instance anchored to a grid cell."""

    object_id: str
    noun: str
    cell: Cell


@dataclass(frozen=True, eq=False)
class GridWorld:
    """Rectangular occupancy grid plus object instances, in map meters.

    The world holds a read-only copy of the grid it is given, and compares
    and hashes by identity.  It keeps the FIELD_CACHE_SIZE most recently
    used breadth-first distance fields, each a search from its goal paused
    once it has reached what was asked of it, held as integer bit-planes
    over the grid walled by one cell.
    """

    grid: Array
    cell_m: float
    objects: tuple[WorldObject, ...] = ()

    def __post_init__(self) -> None:
        grid = np.array(self.grid, dtype=bool)
        if grid.ndim != 2 or grid.size == 0:
            raise ValueError("occupancy grid must be a nonempty 2-d array")
        if not (math.isfinite(self.cell_m) and self.cell_m > 0.0):
            raise ValueError(f"cell size must be a finite positive number, got {self.cell_m}")
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "_fields", LRUCache(FIELD_CACHE_SIZE))
        free = np.packbits(np.pad(~grid, 1), bitorder="little")
        object.__setattr__(self, "_free", int.from_bytes(free.tobytes(), "little"))
        seen = set()
        for obj in self.objects:
            if obj.object_id in seen:
                raise ValueError(f"duplicate object id {obj.object_id!r}")
            seen.add(obj.object_id)
            if not self.in_bounds(obj.cell):
                raise ValueError(f"object {obj.object_id!r} outside the grid")
            if not self._viewable(obj.cell):
                raise ValueError(f"object {obj.object_id!r} has no adjacent free cell")

    def _viewable(self, cell: Cell) -> bool:
        if not self.occupied(cell):
            return True
        col, row = cell
        return any(self.in_bounds((col + dc, row + dr))
                   and not self.occupied((col + dc, row + dr))
                   for dc, dr in STEPS)

    @property
    def rows(self) -> int:
        return self.grid.shape[0]

    @property
    def cols(self) -> int:
        return self.grid.shape[1]

    def in_bounds(self, cell: Cell) -> bool:
        col, row = cell
        return 0 <= col < self.cols and 0 <= row < self.rows

    def occupied(self, cell: Cell) -> bool:
        col, row = cell
        return bool(self.grid[row, col])

    def cell_of(self, x: float, y: float) -> Cell:
        return (int(math.floor(x / self.cell_m)), int(math.floor(y / self.cell_m)))

    def cell_center(self, cell: Cell) -> tuple[float, float]:
        col, row = cell
        return ((col + 0.5) * self.cell_m, (row + 0.5) * self.cell_m)

    def objects_named(self, noun: str) -> list[WorldObject]:
        return [o for o in self.objects if o.noun == noun]

    def steps_between(self, a: Cell, b: Cell) -> int:
        """Steps from a to b over free 4-neighbours, else -1.  Steps are
        symmetric: use b's field if cached, else a's if cached, else start
        b's, and grow it only until it reaches the other end."""
        for cell in (a, b):
            if not self.in_bounds(cell):
                raise ValueError(f"cell {cell} is outside the grid")
        if a in self._fields and b not in self._fields:
            a, b = b, a
        field = self._field(b)
        bit = self._bit(a)
        self._grow(field, bit)
        if not field.reached >> bit & 1:
            return -1
        return sum((plane >> bit & 1) << k for k, plane in enumerate(field.planes))

    def _bit(self, cell: Cell) -> int:
        """cell's bit in a mask over the grid walled by one cell."""
        col, row = cell
        return (row + 1) * (self.cols + 2) + col + 1

    def _field(self, goal: Cell) -> _Field:
        """goal's breadth-first field, kept in the least-recently-used cache;
        a new one has reached only goal itself."""
        def start() -> _Field:
            front = self._free & 1 << self._bit(goal)
            return _Field(reached=front, front=front, unvisited=self._free ^ front)
        return self._fields.get(goal, start)

    def _grow(self, field: _Field, bit: int) -> None:
        """Resume field's search one wavefront layer at a time until it
        has reached the cell at bit or its front is empty, then pause it.

        Bit k of the step counts is set on runs of 2**k consecutive steps.
        Plane k takes each run as one XOR of the unvisited mask where the
        run starts and again where it ends: the free cells cancel, leaving
        the cells the run reached.  Runs still open when the search pauses
        are closed with the unvisited mask then, and reopened by the same
        XOR when it resumes.  The wall cells are 0 in _free, so no shift
        carries a cell across a row's end.
        """
        front, unvisited, step, planes = field.front, field.unvisited, field.step, field.planes
        if not front or field.reached >> bit & 1:
            return
        width = self.cols + 2
        _xor_open_runs(planes, step, unvisited)
        while True:
            front = (front << 1 | front >> 1 | front << width | front >> width) & unvisited
            if not front:
                break
            step += 1
            low = step & -step  # bits 0 .. log2(low) of step flip here
            if low == step:
                planes.append(0)
            for k in range(low.bit_length()):
                planes[k] ^= unvisited
            unvisited ^= front
            if front >> bit & 1:
                break
        _xor_open_runs(planes, step, unvisited)
        field.front, field.unvisited, field.step = front, unvisited, step
        field.reached = self._free ^ unvisited


@dataclass(slots=True)
class _Field:
    """A goal's paused breadth-first search, as integer bit masks over the
    walled grid: the cells reached so far, the front (the cells step steps
    away; 0 once the search has ended), the free cells not yet reached,
    and planes[k], bit k of every reached cell's step count."""

    reached: int
    front: int
    unvisited: int
    step: int = 0
    planes: list[int] = field(default_factory=list)


def _xor_open_runs(planes: list[int], step: int, mask: int) -> None:
    """XOR mask into the plane of every bit set in step: opens or closes
    the runs of 2**k steps that step lies in."""
    for k in range(step.bit_length()):
        if step >> k & 1:
            planes[k] ^= mask


@dataclass(frozen=True)
class FovParams:
    """Camera model: angular half-width, range, and occlusion switch."""

    half_angle: float = DEFAULT_HALF_ANGLE
    max_range: float = DEFAULT_MAX_RANGE
    occlusion: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.half_angle < math.pi:
            raise ValueError(f"half_angle must lie in (0, pi), got {self.half_angle}")
        if not self.max_range > 0.0:  # inf means no range limit
            raise ValueError(f"max_range must be positive, got {self.max_range}")


@dataclass
class EpisodeResult:
    """Outcome of one navigation episode."""

    query: str
    ranked_ids: list[str]
    visited: list[Pose]
    stop_pose: Pose
    distance: float
    object_in_fov: bool
    path_cells: int
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.distance < 0.0:
            raise ValueError("distance must be nonnegative")
        if not self.visited or self.visited[-1] != self.stop_pose:
            raise ValueError("stop pose must be the last visited pose")


@dataclass(frozen=True)
class SuccessReport:
    """Success rate at a radius plus the FOV-only rate."""

    success_rate: float
    fov_rate: float


# ----------------------------------------------------------------------
# World file format

def parse_world(text: str, cell_m: float = DEFAULT_CELL_M) -> GridWorld:
    """Parse a grid block (# occupied, . free), a blank line, an object table."""
    lines = text.splitlines()
    grid_rows: list[list[bool]] = []
    i = 0
    while i < len(lines) and lines[i].strip():
        row = lines[i].strip()
        bad = set(row) - {"#", "."}
        if bad:
            raise ValueError(f"line {i + 1}: bad grid characters {sorted(bad)}")
        grid_rows.append([c == "#" for c in row])
        i += 1
    if not grid_rows:
        raise ValueError("world file has no grid")
    if len({len(r) for r in grid_rows}) != 1:
        raise ValueError("grid rows have unequal lengths")
    objects = []
    for lineno in range(i, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"line {lineno + 1}: expected 'id noun cell_x cell_y'")
        try:
            cell = (int(parts[2]), int(parts[3]))
        except ValueError:
            raise ValueError(f"line {lineno + 1}: cell coordinates must be integers")
        objects.append(WorldObject(object_id=parts[0], noun=parts[1], cell=cell))
    return GridWorld(grid=np.array(grid_rows, dtype=bool), cell_m=cell_m,
                     objects=tuple(objects))


def load_world(path: str, cell_m: float = DEFAULT_CELL_M) -> GridWorld:
    text = "".join(read_lines(path))
    try:
        return parse_world(text, cell_m=cell_m)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# Planning

def plan_path(world: GridWorld, start: Pose, goal: Pose) -> int:
    """Shortest 4-connected steps from start's cell to goal's, -1 if unreachable."""
    start_cell = world.cell_of(start.x, start.y)
    goal_cell = world.cell_of(goal.x, goal.y)
    for label, cell in (("start", start_cell), ("goal", goal_cell)):
        if not world.in_bounds(cell):
            raise ValueError(f"{label} cell {cell} is outside the grid")
        if world.occupied(cell):
            raise ValueError(f"{label} cell {cell} is occupied")
    return world.steps_between(start_cell, goal_cell)


# ----------------------------------------------------------------------
# Field of view

def _ray_blocked(world: GridWorld, a: tuple[float, float],
                 b: tuple[float, float]) -> bool:
    """True when an occupied cell lies strictly between the two points.

    The endpoints' own cells never block: the viewer stands in one and the
    target (often an occupied furniture cell) defines the other.
    """
    start_cell = world.cell_of(*a)
    end_cell = world.cell_of(*b)
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    col, row = start_cell
    step_c = 1 if dx > 0 else -1
    step_r = 1 if dy > 0 else -1
    # Parametric distance to the next vertical / horizontal grid line.
    if dx != 0.0:
        next_c = (col + (1 if dx > 0 else 0)) * world.cell_m
        t_max_c = (next_c - a[0]) / dx
        t_delta_c = world.cell_m / abs(dx)
    else:
        t_max_c, t_delta_c = math.inf, math.inf
    if dy != 0.0:
        next_r = (row + (1 if dy > 0 else 0)) * world.cell_m
        t_max_r = (next_r - a[1]) / dy
        t_delta_r = world.cell_m / abs(dy)
    else:
        t_max_r, t_delta_r = math.inf, math.inf
    cell = (col, row)
    while cell != end_cell:
        if t_max_c <= t_max_r:
            col += step_c
            t_max_c += t_delta_c
        else:
            row += step_r
            t_max_r += t_delta_r
        cell = (col, row)
        if cell == end_cell:
            break
        if not world.in_bounds(cell) or world.occupied(cell):
            return True
    return False


def in_fov(pose: Pose, target: tuple[float, float], fov: FovParams,
           world: GridWorld | None) -> bool:
    """Range and bearing test, then line of sight through world, which is
    read only when fov.occlusion is set."""
    dx = target[0] - pose.x
    dy = target[1] - pose.y
    distance = math.hypot(dx, dy)
    if distance > fov.max_range:
        return False
    if distance < 1e-12:
        return True
    bearing = math.atan2(dy, dx)
    if abs(normalize_angle(bearing - pose.theta)) > fov.half_angle:
        return False
    return not (fov.occlusion and _ray_blocked(world, (pose.x, pose.y), target))


# ----------------------------------------------------------------------
# Episode execution

def _fov_hit(world: GridWorld, pose: Pose, instances: Sequence[WorldObject],
             fov: FovParams) -> WorldObject | None:
    for obj in instances:
        if in_fov(pose, world.cell_center(obj.cell), fov, world):
            return obj
    return None


def execute_episode(query: str, noun: str, memory: Sequence[MemoryEntry],
                    world: GridWorld, k: int,
                    encode: Callable[[str], Array],
                    start: Pose,
                    fov: FovParams = FovParams()) -> EpisodeResult:
    """Visit the top-k retrieved memory poses until the object is in view.

    The retrieval prompt is the object noun followed by the query sentence.
    Candidates whose pose cannot be reached are skipped with a note; if no
    visited pose sees the object the episode stops at the last one reached.
    """
    if not memory:
        raise ValueError("memory must be nonempty")
    instances = world.objects_named(noun)
    if not instances:
        raise ValueError(f"world has no object named {noun!r}")
    prompt = build_prompt(noun, query) if query else noun
    vec = np.asarray(encode(prompt), dtype=np.float64).reshape(-1)
    matrix = np.array([entry.embedding for entry in memory])
    if vec.shape[0] != matrix.shape[1]:
        raise ValueError(f"query embedding has dimension {vec.shape[0]}, "
                         f"memory has {matrix.shape[1]}")
    ids = [entry.image_id for entry in memory]
    # The same matrix-vector product and ranker as retrieval.topk_images.
    rows = top_rows(matrix @ vec, ids, min(k, len(memory)))
    ranked_ids = [ids[i] for i in rows]

    visited: list[Pose] = []
    notes: list[str] = []
    path_cells = 0
    seen: WorldObject | None = None
    current = start
    for entry in [memory[i] for i in rows]:
        try:
            steps = plan_path(world, current, entry.pose)
        except ValueError as exc:
            notes.append(f"skipped {entry.image_id}: {exc}")
            continue
        if steps < 0:
            notes.append(f"skipped {entry.image_id}: unreachable")
            continue
        path_cells += steps
        current = entry.pose
        visited.append(current)
        seen = _fov_hit(world, current, instances, fov)
        if seen is not None:
            break
    if not visited:
        visited = [start]
        notes.append("all candidates unreachable")
    stop = visited[-1]
    if seen is not None:
        target = world.cell_center(seen.cell)
    else:
        target = min((world.cell_center(o.cell) for o in instances),
                     key=lambda p: math.hypot(p[0] - stop.x, p[1] - stop.y))
    distance = math.hypot(target[0] - stop.x, target[1] - stop.y)
    return EpisodeResult(query=query, ranked_ids=ranked_ids, visited=visited,
                         stop_pose=stop, distance=distance,
                         object_in_fov=seen is not None,
                         path_cells=path_cells, notes=notes)


# ----------------------------------------------------------------------
# Metrics and logs

def success_rate(episodes: Sequence[EpisodeResult], radius: float) -> SuccessReport:
    """Fraction of episodes stopping within radius with the object in view."""
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be a finite positive number, got {radius}")
    if not episodes:
        raise ValueError("no episodes to score")
    wins = sum(1 for e in episodes if e.distance <= radius and e.object_in_fov)
    fov = sum(1 for e in episodes if e.object_in_fov)
    return SuccessReport(success_rate=wins / len(episodes), fov_rate=fov / len(episodes))


def episode_to_json(result: EpisodeResult) -> dict:
    return {"query": result.query,
            "ranked_ids": list(result.ranked_ids),
            "stop_pose": pose_to_json(result.stop_pose),
            "distance": result.distance,
            "object_in_fov": result.object_in_fov,
            "path_cells": result.path_cells,
            "notes": list(result.notes)}


def save_episode_log(episodes: Sequence[EpisodeResult], path: str) -> None:
    """Write one JSON record per episode."""
    write_jsonl(path, map(episode_to_json, episodes))
