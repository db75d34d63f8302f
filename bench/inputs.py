"""Seeded input generators: image corpora, query texts, grid worlds, episodes.

Everything here is made from a numpy seed and written as the files the
program reads (P6 images, dataset JSONL, world text, pose JSONL), so the
program under test sees only generated inputs.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

# The fixture vocabulary: each noun is drawn in its own colour.
NOUN_COLORS = {
    "cup": (0.85, 0.10, 0.10),
    "book": (0.10, 0.15, 0.80),
    "lamp": (0.95, 0.85, 0.20),
    "sofa": (0.15, 0.65, 0.20),
    "plant": (0.20, 0.80, 0.80),
    "chair": (0.90, 0.45, 0.10),
}
NOUNS = tuple(NOUN_COLORS)

# Image sides are multiples of the encoder's 8-pixel patch, 16 to 64 pixels.
SIDES = (16, 24, 32, 40, 48, 56, 64)

# Household phrasings; serve draws from a small pool so texts repeat, and
# navigate combines many of them so texts rarely do.
SENTENCES = (
    "Anything to drink?", "Something to read?", "Too dark here.",
    "Somewhere to sit?", "Needs watering today?", "Seat at the desk?",
    "Where did I leave it?", "Is it in the kitchen?", "Bring it to me.",
    "Near the window maybe.", "Check the living room.", "I need it now.",
)
ADJECTIVES = ("red", "old", "small", "big", "blue", "green", "new", "wooden",
              "white", "tall", "soft", "round")


@dataclass(frozen=True)
class CorpusImage:
    """One generated image: its id and its objects as (noun, box)."""

    image_id: str
    objects: tuple[tuple[str, tuple[float, float, float, float]], ...]

    @property
    def nouns(self) -> frozenset[str]:
        return frozenset(noun for noun, _ in self.objects)


def write_ppm(path: str, image: np.ndarray) -> None:
    raw = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
        fh.write(raw.tobytes())


def write_corpus(rng: np.random.Generator, count: int, out_dir: str) -> list[CorpusImage]:
    """Write `count` images with 1-3 distinct fixture objects and a dataset.jsonl."""
    os.makedirs(out_dir, exist_ok=True)
    images = []
    with open(os.path.join(out_dir, "dataset.jsonl"), "w", encoding="utf-8") as fh:
        for i in range(count):
            h, w = (int(s) for s in rng.choice(SIDES, size=2))
            nouns = [str(n) for n in rng.choice(NOUNS, size=int(rng.integers(1, 4)),
                                                replace=False)]
            pixels = np.empty((h, w, 3))
            pixels[:] = rng.uniform(0.0, 1.0, size=3)
            objects = []
            for noun in nouns:
                bw = int(rng.integers(max(2, w // 5), max(3, w // 2) + 1))
                bh = int(rng.integers(max(2, h // 5), max(3, h // 2) + 1))
                x0 = int(rng.integers(0, w - bw + 1))
                y0 = int(rng.integers(0, h - bh + 1))
                pixels[y0:y0 + bh, x0:x0 + bw] = NOUN_COLORS[noun]
                objects.append((noun, (x0 / w, y0 / h, (x0 + bw) / w, (y0 + bh) / h)))
            image = CorpusImage(image_id=f"c{i:05d}", objects=tuple(objects))
            write_ppm(os.path.join(out_dir, f"{image.image_id}.ppm"), pixels)
            fh.write(json.dumps({
                "image_id": image.image_id, "width": w, "height": h,
                "pose": {"x": 0.0, "y": 0.0, "theta": 0.0},
                "objects": [{"noun": noun, "box": list(box),
                             "captions": [noun, SENTENCES[NOUNS.index(noun)]]}
                            for noun, box in objects]}, sort_keys=True) + "\n")
            images.append(image)
    return images


def household_queries(rng: np.random.Generator, count: int) -> list[str]:
    """Query texts drawn with Zipf weights from a 42-text pool: each noun
    alone, and each noun with six sentences.  The pool's frequency order is
    fixed, so every seed has the same mix of short and long texts."""
    pool = [noun for noun in NOUNS]
    pool += [f"{noun}. {SENTENCES[j]}" for j in range(6) for noun in NOUNS]
    weights = 1.0 / np.arange(1, len(pool) + 1)
    picks = rng.choice(len(pool), size=count, p=weights / weights.sum())
    return [pool[p] for p in picks]


# ----------------------------------------------------------------------
# Grid worlds


@dataclass(frozen=True)
class World:
    """An occupancy grid (True = occupied) and object instances by cell."""

    grid: np.ndarray
    objects: tuple[tuple[str, str, tuple[int, int]], ...]

    def free_cells(self) -> np.ndarray:
        rows, cols = np.nonzero(~self.grid)
        return np.stack([cols, rows], axis=1)

    def text(self) -> str:
        rows = ["".join("#" if v else "." for v in row) for row in self.grid]
        table = [f"{oid} {noun} {c} {r}" for oid, noun, (c, r) in self.objects]
        return "\n".join(rows) + "\n\n" + "\n".join(table) + "\n"


def make_world(rng: np.random.Generator, side: int, clutter: float,
               instances_per_noun: int) -> World:
    """A 4x4 grid of rooms with a two-cell door mid-way along each wall,
    seeded clutter, and only the largest connected free region kept free.

    Walls and doors do not depend on the seed, so planning cost varies
    little from seed to seed; clutter and object cells do.
    """
    grid = rng.random((side, side)) < clutter
    room = side // 4
    for k in range(room, side, room):
        grid[k, :] = True
        grid[:, k] = True
        for lo in range(0, side, room):
            door = lo + room // 2
            grid[k, door:door + 2] = False
            grid[door:door + 2, k] = False
    grid[[0, -1], :] = True
    grid[:, [0, -1]] = True
    keep = _largest_region(grid)
    free = np.argwhere(keep)
    picks = rng.choice(len(free), size=instances_per_noun * len(NOUNS), replace=False)
    objects = []
    for n, idx in enumerate(picks):
        row, col = (int(v) for v in free[idx])
        noun = NOUNS[n % len(NOUNS)]
        objects.append((f"ob{n:03d}_{noun}", noun, (col, row)))
    return World(grid=~keep, objects=tuple(objects))


def _largest_region(grid: np.ndarray) -> np.ndarray:
    """Mask of the largest 4-connected free region."""
    label = np.full(grid.shape, -1)
    sizes = []
    rows, cols = grid.shape
    for r0, c0 in np.argwhere(~grid):
        if label[r0, c0] >= 0:
            continue
        tag = len(sizes)
        label[r0, c0] = tag
        queue = deque([(r0, c0)])
        size = 0
        while queue:
            r, c = queue.popleft()
            size += 1
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols and not grid[rr, cc] \
                        and label[rr, cc] < 0:
                    label[rr, cc] = tag
                    queue.append((rr, cc))
        sizes.append(size)
    return label == int(np.argmax(sizes))


def cell_center(cell: tuple[int, int], cell_m: float) -> tuple[float, float]:
    return ((cell[0] + 0.5) * cell_m, (cell[1] + 0.5) * cell_m)


def random_poses(rng: np.random.Generator, world: World, count: int,
                 cell_m: float) -> list[tuple[float, float, float]]:
    """Capture poses at random free cells with random headings."""
    free = world.free_cells()
    poses = []
    for _ in range(count):
        col, row = (int(v) for v in free[int(rng.integers(len(free)))])
        x, y = cell_center((col, row), cell_m)
        poses.append((x, y, float(rng.uniform(-math.pi, math.pi))))
    return poses


@dataclass(frozen=True)
class EpisodeSpec:
    """One navigation request: noun, sentence, k and a start pose."""

    noun: str
    sentence: str
    k: int
    start: tuple[float, float, float]


def episode_specs(rng: np.random.Generator, world: World, count: int,
                  cell_m: float) -> list[EpisodeSpec]:
    """Episodes with k cycling from 1 to 10 and starts at random free poses."""
    specs = []
    for n, start in enumerate(random_poses(rng, world, count, cell_m)):
        noun = NOUNS[int(rng.integers(len(NOUNS)))]
        adjective = ADJECTIVES[int(rng.integers(len(ADJECTIVES)))]
        sentence = f"The {adjective} {noun}. {SENTENCES[int(rng.integers(len(SENTENCES)))]}"
        specs.append(EpisodeSpec(noun=noun, sentence=sentence, k=1 + n % 10, start=start))
    return specs
