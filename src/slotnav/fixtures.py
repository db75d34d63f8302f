"""Procedural desk-scale fixtures: images, dataset, world, and query files.

Everything here is deterministic and hand-checkable. The navigation fixture
is engineered so every episode can be traced by hand: memory embeddings are
orthonormal basis rows and query embeddings pick their ranking explicitly.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

import numpy as np

from .encoder import write_ppm
from .navsim import MemoryEntry
from .promptgen import (CaptionedObject, CaptionRecord, Pose, pose_to_json, record_to_json,
                        save_dataset, write_jsonl)
from .retrieval import GroundTruth, build_index, save_ground_truth, save_index

Array = np.ndarray

IMAGE_SIDE = 16

NOUN_COLORS = {
    "cup": (0.85, 0.10, 0.10),
    "book": (0.10, 0.15, 0.80),
    "lamp": (0.95, 0.85, 0.20),
    "sofa": (0.15, 0.65, 0.20),
    "plant": (0.20, 0.80, 0.80),
    "chair": (0.90, 0.45, 0.10),
}

# One background per image; distinct scenes keep the pooled embeddings from
# collapsing onto the shared-background direction before training starts.
SCENE_BACKGROUNDS = (
    (0.95, 0.95, 0.95),
    (0.05, 0.05, 0.05),
    (0.70, 0.10, 0.60),
    (0.10, 0.45, 0.10),
    (0.55, 0.55, 0.05),
    (0.05, 0.30, 0.60),
    (0.60, 0.30, 0.05),
    (0.35, 0.05, 0.35),
)

# Sentences deliberately avoid naming the object, so prefixing the noun
# changes the query content; kept short so the noun is not drowned out.
QUERY_SENTENCES = {
    "cup": "Anything to drink?",
    "book": "Something to read?",
    "lamp": "Too dark here.",
    "sofa": "Somewhere to sit?",
    "plant": "Needs watering today?",
    "chair": "Seat at the desk?",
}

# Pixel slots (row_lo, row_hi, col_lo, col_hi), inclusive, on the 16x16 canvas.
_SLOTS = ((2, 7, 1, 6), (2, 7, 9, 14), (10, 14, 4, 11))

IMAGE_NOUNS = (
    ("cup", "book"),
    ("lamp", "sofa"),
    ("plant", "chair"),
    ("cup", "lamp"),
    ("book", "plant"),
    ("sofa", "chair"),
    ("cup", "sofa", "plant"),
    ("book", "lamp", "chair"),
)


def _slot_box(slot: tuple[int, int, int, int]) -> list[float]:
    row_lo, row_hi, col_lo, col_hi = slot
    return [col_lo / IMAGE_SIDE, row_lo / IMAGE_SIDE,
            (col_hi + 1) / IMAGE_SIDE, (row_hi + 1) / IMAGE_SIDE]


def render_image(nouns: Sequence[str], background: tuple[float, float, float]) -> Array:
    """Colored rectangles on a solid background, one slot per noun."""
    if not 1 <= len(nouns) <= len(_SLOTS):
        raise ValueError(f"supports 1..{len(_SLOTS)} objects, got {len(nouns)}")
    image = np.ones((IMAGE_SIDE, IMAGE_SIDE, 3), dtype=np.float64)
    image *= np.asarray(background)
    for noun, slot in zip(nouns, _SLOTS):
        row_lo, row_hi, col_lo, col_hi = slot
        image[row_lo:row_hi + 1, col_lo:col_hi + 1] = NOUN_COLORS[noun]
    return image


def training_records() -> list[CaptionRecord]:
    """The 8-image multi-label dataset; captions are [noun, sentence]."""
    records = []
    for i, nouns in enumerate(IMAGE_NOUNS):
        objects = [CaptionedObject(noun=noun, box=_slot_box(slot),
                                   captions=[noun, QUERY_SENTENCES[noun]])
                   for noun, slot in zip(nouns, _SLOTS)]
        records.append(CaptionRecord(
            image_id=f"img{i:03d}", width=IMAGE_SIDE, height=IMAGE_SIDE,
            pose=Pose(x=(i + 0.5) * 0.25, y=3.375, theta=0.0),
            objects=objects))
    return records


def training_images() -> dict[str, Array]:
    return {f"img{i:03d}": render_image(nouns, SCENE_BACKGROUNDS[i])
            for i, nouns in enumerate(IMAGE_NOUNS)}


# ----------------------------------------------------------------------
# Navigation fixture (fully hand-traced; see tests for the expected runs)

NAV_CELL_M = 0.25

_WORLD_ROWS = ["." * 15] * 15
_WORLD_ROWS[4] = "......###......"

NAV_WORLD_TEXT = "\n".join(_WORLD_ROWS) + (
    "\n\n"
    "ob_sofa sofa 12 2\n"
    "ob_plant plant 2 12\n"
    "ob_lamp lamp 7 6\n")

NAV_EMBED_DIM = 8

# id, cell, heading. All poses sit at cell centers.
_NAV_MEMORY = (
    ("m0", (10, 2), 0.0),               # sees the sofa 0.5 m east
    ("m1", (12, 4), math.pi / 2.0),     # south of the sofa, facing away
    ("m2", (2, 7), math.pi / 2.0),      # sees the plant 1.25 m south
    ("m3", (7, 2), math.pi / 2.0),      # lamp view blocked by the wall
    ("m4", (7, 9), -math.pi / 2.0),     # sees the lamp 0.75 m north
    ("m5", (0, 0), math.pi),            # corner pose facing nothing
)

# query id, noun, k, memory ranking the engineered embedding produces.
_NAV_QUERIES = (
    ("ep0", "sofa", 1, ("m0",)),
    ("ep1", "sofa", 1, ("m1",)),
    ("ep2", "plant", 1, ("m2",)),
    ("ep3", "lamp", 2, ("m3", "m4")),
)

NAV_START = {"x": 0.125, "y": 0.125, "theta": 0.0}


def _cell_center(cell: tuple[int, int]) -> tuple[float, float]:
    return ((cell[0] + 0.5) * NAV_CELL_M, (cell[1] + 0.5) * NAV_CELL_M)


def nav_memory_entries() -> list[MemoryEntry]:
    basis = np.eye(NAV_EMBED_DIM)
    entries = []
    for i, (entry_id, cell, theta) in enumerate(_NAV_MEMORY):
        x, y = _cell_center(cell)
        entries.append(MemoryEntry(image_id=entry_id,
                                   pose=Pose(x=x, y=y, theta=theta),
                                   embedding=basis[i]))
    return entries


def nav_query_rows() -> tuple[list[str], Array]:
    """Query embeddings that rank the memory entries listed in _NAV_QUERIES."""
    basis = np.eye(NAV_EMBED_DIM)
    order = [entry_id for entry_id, _, _ in _NAV_MEMORY]
    rows = []
    for _, _, _, ranking in _NAV_QUERIES:
        weights = [0.9, math.sqrt(0.19)]
        vec = np.zeros(NAV_EMBED_DIM)
        for weight, entry_id in zip(weights, ranking):
            vec += weight * basis[order.index(entry_id)]
        rows.append(vec / np.linalg.norm(vec))
    return [qid for qid, _, _, _ in _NAV_QUERIES], np.stack(rows)


def nav_query_records() -> list[dict]:
    return [{"query_id": qid, "noun": noun,
             "sentence": QUERY_SENTENCES[noun], "k": k, "start": dict(NAV_START)}
            for qid, noun, k, _ in _NAV_QUERIES]


# ----------------------------------------------------------------------
# Orthonormal retrieval fixture

ORTHO_COUNT = 6


def ortho_indexes():
    """Self-retrieving index/query pair plus its ground truth."""
    basis = np.eye(ORTHO_COUNT)
    items = build_index(basis, [f"item{i}" for i in range(ORTHO_COUNT)])
    queries = build_index(basis, [f"q{i}" for i in range(ORTHO_COUNT)])
    gt = GroundTruth(relevant={f"q{i}": frozenset({f"item{i}"})
                               for i in range(ORTHO_COUNT)})
    return items, queries, gt


# ----------------------------------------------------------------------
# Bundle writer

def write_fixture_bundle(out_dir: str) -> dict[str, str]:
    """Write every fixture file; returns a name -> path map."""
    os.makedirs(out_dir, exist_ok=True)
    paths: dict[str, str] = {}

    def at(name: str) -> str:
        paths[name] = os.path.join(out_dir, name)
        return paths[name]

    records = training_records()
    images = training_images()
    save_dataset(records, at("dataset.jsonl"))
    for image_id, image in images.items():
        write_ppm(os.path.join(out_dir, f"{image_id}.ppm"), image)
        paths[f"{image_id}.ppm"] = os.path.join(out_dir, f"{image_id}.ppm")

    write_jsonl(at("detection.jsonl"), (
        {**r, "objects": [{"noun": o["noun"], "box": o["box"]} for o in r["objects"]]}
        for r in map(record_to_json, records)))
    write_jsonl(at("image_poses.jsonl"),
                ({"image_id": r.image_id, "pose": pose_to_json(r.pose)} for r in records))

    with open(at("world.txt"), "w", encoding="utf-8") as fh:
        fh.write(NAV_WORLD_TEXT)

    entries = nav_memory_entries()
    save_index(build_index([e.embedding for e in entries],
                           [e.image_id for e in entries]),
               at("nav_memory.lze"))
    write_jsonl(at("nav_memory_poses.jsonl"),
                ({"image_id": e.image_id, "pose": pose_to_json(e.pose)} for e in entries))

    query_ids, rows = nav_query_rows()
    save_index(build_index(rows, query_ids), at("nav_queries.lze"))
    write_jsonl(at("nav_queries.jsonl"), nav_query_records())

    items, queries, gt = ortho_indexes()
    save_index(items, at("ortho_index.lze"))
    save_index(queries, at("ortho_queries.lze"))
    save_ground_truth(gt, at("ortho_gt.tsv"))
    return paths
