"""Exact text-to-image retrieval over unit-norm embedding tables."""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .promptgen import read_lines

Array = np.ndarray

MAGIC = b"LZE1"


# ----------------------------------------------------------------------
# Domain types

@dataclass(frozen=True)
class EmbeddingIndex:
    """Immutable table of unit-norm rows addressed by stable string ids."""

    matrix: Array
    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("index matrix must be 2-d")
        if matrix.shape[0] != len(self.ids):
            raise ValueError("row count does not match id count")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("index ids must be unique")
        norms = np.linalg.norm(matrix, axis=1)
        if matrix.shape[0] and not np.all(np.abs(norms - 1.0) <= 1e-6):
            raise ValueError("index rows must be unit norm within 1e-6")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "ids", tuple(self.ids))

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class GroundTruth:
    """Per-query sets of relevant item ids; many-to-many is allowed."""

    relevant: Mapping[str, frozenset[str]]

    def for_query(self, query_id: str) -> frozenset[str]:
        return self.relevant.get(query_id, frozenset())


@dataclass(frozen=True)
class RecallReport:
    """Average recall per cutoff."""

    values: dict[int, float]

    def __post_init__(self) -> None:
        last = 0.0
        for k in sorted(self.values):
            if not 0.0 <= self.values[k] <= 1.0:
                raise ValueError("average recall must lie in [0, 1]")
            if self.values[k] < last - 1e-12:
                raise ValueError("average recall must be nondecreasing in k")
            last = self.values[k]


# ----------------------------------------------------------------------
# Index construction

def build_index(embeddings: Sequence[Array] | Array,
                ids: Sequence[str]) -> EmbeddingIndex:
    """Stack embeddings into an immutable index, renormalizing each row."""
    rows = np.asarray(embeddings, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("embeddings must stack into a 2-d matrix")
    if rows.shape[0] != len(ids):
        raise ValueError(f"{rows.shape[0]} embeddings but {len(ids)} ids")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms <= 0.0) or not np.all(np.isfinite(norms)):
        raise ValueError("every embedding must have positive finite norm")
    return EmbeddingIndex(matrix=rows / norms[:, None],
                          ids=tuple(str(i) for i in ids))


# ----------------------------------------------------------------------
# Search

def top_rows(scores: Array, ids: Sequence[str], k: int) -> list[int]:
    """Rows of the k best scores: descending score, ties by ascending id."""
    if not 1 <= k <= len(ids):
        raise ValueError(f"k must be in [1, {len(ids)}], got {k}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("cannot rank non-finite scores")
    # Sort every row at or above the k-th best score, so a tie across place k goes by id.
    kth = np.partition(scores, len(ids) - k)[len(ids) - k]
    rows = np.flatnonzero(scores >= kth).tolist()
    return sorted(rows, key=lambda i: (-scores[i], ids[i]))[:k]


def query_scores(query: Array, index: EmbeddingIndex) -> Array:
    """Cosine similarity of one query to every index row."""
    vec = np.asarray(query, dtype=np.float64).reshape(-1)
    if vec.shape[0] != index.dim:
        raise ValueError(f"query has dimension {vec.shape[0]}, index has {index.dim}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("query has non-finite values")
    return index.matrix @ vec


def topk_images(query: Array, index: EmbeddingIndex, k: int) -> list[str]:
    """Ids of the k most similar images, descending similarity."""
    return [index.ids[i] for i in top_rows(query_scores(query, index), index.ids, k)]


# ----------------------------------------------------------------------
# Metrics

def average_recall(results: Mapping[str, Sequence[str]], gt: GroundTruth,
                   ks: int | Sequence[int]) -> RecallReport:
    """Fraction of queries whose top-k results contain any relevant id."""
    cutoffs = (ks,) if isinstance(ks, int) else tuple(ks)
    if not cutoffs or min(cutoffs) < 1:
        raise ValueError("cutoffs must be positive")
    if not results:
        raise ValueError("no queries to score")
    for qid, ranked in results.items():
        if len(ranked) < max(cutoffs):
            raise ValueError(f"query {qid!r} has fewer than {max(cutoffs)} results")
    missing = sorted(set(results) - set(gt.relevant))
    if missing:
        warnings.warn(f"queries without ground truth counted as misses: {missing}",
                      stacklevel=2)
    values = {}
    for k in cutoffs:
        hits = sum(bool(gt.for_query(qid) & set(ranked[:k])) for qid, ranked in results.items())
        values[k] = hits / len(results)
    return RecallReport(values=values)


# ----------------------------------------------------------------------
# File formats

def save_index(index: EmbeddingIndex, path: str) -> None:
    """Write the index: magic, counts, float32 rows, newline-terminated ids."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", len(index), index.dim))
        fh.write(index.matrix.astype("<f4").tobytes(order="C"))
        for item_id in index.ids:
            if "\n" in item_id:
                raise ValueError("ids may not contain newlines")
            fh.write(item_id.encode("utf-8") + b"\n")


def load_index(path: str) -> EmbeddingIndex:
    """Read an index written by save_index; a malformed file raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if data[:4] != MAGIC:
            raise ValueError(f"bad magic {data[:4]!r}")
        count, dim = struct.unpack_from("<II", data, 4)
        end = 12 + 4 * count * dim
        if len(data) < end:
            raise ValueError("truncated embedding payload")
        rows = np.frombuffer(data, dtype="<f4", count=count * dim, offset=12)
        lines = data[end:].split(b"\n")
        if len(lines) <= count:
            raise ValueError("truncated id section")
        return build_index(rows.reshape(count, dim).astype(np.float64),
                           [line.decode("utf-8") for line in lines[:count]])
    except (ValueError, struct.error) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_ground_truth(gt: GroundTruth, path: str) -> None:
    """Write one query_id<tab>image_id line per relevant pair."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(gt.relevant):
            for iid in sorted(gt.relevant[qid]):
                fh.write(f"{qid}\t{iid}\n")


def load_ground_truth(path: str, index: EmbeddingIndex) -> GroundTruth:
    """Read tab-separated relevance pairs, each naming an id of index."""
    relevant: dict[str, set[str]] = {}
    known = set(index.ids)
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected query<tab>image")
        if parts[1] not in known:
            raise ValueError(f"{path}: line {lineno}: query {parts[0]!r} "
                             f"references unknown id {parts[1]!r}")
        relevant.setdefault(parts[0], set()).add(parts[1])
    return GroundTruth(relevant={q: frozenset(s) for q, s in relevant.items()})
