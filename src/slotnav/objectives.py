"""Training objectives: box geometry, Hungarian matching, contrastive losses.

The total loss is assembled in two phases over one value frame.  Boxes are
first evaluated, which fills the frame with the image towers, so the
rectangular assignment between slots and annotations can be computed on
values; the graph is then extended with gather nodes that bake the chosen
assignment in, so gradients flow through every matched slot and box while
the match itself stays a constant of the step, and the whole objective
remains a single differentiable scalar.  The loss report extends the same
frame and runs only the loss head, and the frame is kept on TotalLossGraph
so the gradient starts from it: each node of the step is evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableMapping, Sequence

import numpy as np

from .autodiff import Frame, Graph, Node, ParamStore, derive_seed
from .encoder import Binding, EncoderConfig, build_image_embedding, encode_text, sample_slots

Array = np.ndarray


# ----------------------------------------------------------------------
# Domain types


def _check_box(box: Array) -> Array:
    box = np.asarray(box, dtype=np.float64)
    if box.shape != (4,):
        raise ValueError(f"box must have 4 coordinates, got shape {box.shape}")
    if not np.all(np.isfinite(box)):
        raise ValueError("box coordinates must be finite")
    if box[0] > box[2] or box[1] > box[3]:
        raise ValueError(f"box corners out of order: {box.tolist()}")
    return box


@dataclass(frozen=True)
class Annotation:
    """One grounded caption: text plus its normalized corner box."""

    caption: str
    box: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "box", _check_box(self.box))
        if not self.caption:
            raise ValueError("annotation caption must be nonempty")


@dataclass(frozen=True)
class AnnotationSet:
    """All grounded captions for one image."""

    annotations: tuple[Annotation, ...]

    def __post_init__(self) -> None:
        if len(self.annotations) < 1:
            raise ValueError("an image needs at least one annotation")

    def __len__(self) -> int:
        return len(self.annotations)

    def boxes(self) -> Array:
        return np.stack([a.box for a in self.annotations])

    def captions(self) -> list[str]:
        return [a.caption for a in self.annotations]


@dataclass(frozen=True)
class Assignment:
    """Slot-to-annotation matching; each index used at most once."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_slots: tuple[int, ...]
    cost: float

    def __post_init__(self) -> None:
        slots = [i for i, _ in self.pairs]
        anns = [j for _, j in self.pairs]
        if len(set(slots)) != len(slots) or len(set(anns)) != len(anns):
            raise ValueError("assignment reuses a slot or annotation index")


@dataclass(frozen=True)
class LossWeights:
    """Component weights, temperature, and the matching-cost convention."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1.0
    tau: float = 0.07
    literal_giou_cost: bool = False

    def __post_init__(self) -> None:
        if min(self.alpha, self.beta, self.gamma, self.delta) < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.tau <= 0:
            raise ValueError("temperature must be positive")


@dataclass
class LossReport:
    """Component values and their weighted total for one batch."""

    L_C: float
    L_L1: float
    L_GIoU: float
    L_MC: float
    total: float


@dataclass
class MultilabelLoss:
    """Multi-label contrastive value; empty marks the no-matched-slots case."""

    value: float
    empty: bool


# ----------------------------------------------------------------------
# Box geometry


def l1_box(a, b) -> float:
    """Sum of absolute corner differences."""
    a, b = _check_box(np.asarray(a)), _check_box(np.asarray(b))
    return float(np.abs(a - b).sum())


def giou(a, b) -> float:
    """Generalized IoU value in (-1, 1]: IoU minus the hull penalty.

    Degenerate corners: union 0 with coincident boxes returns 1 (perfect
    match convention); union 0 with distinct boxes returns -1.
    """
    a, b = _check_box(np.asarray(a)), _check_box(np.asarray(b))
    inter_w = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    inter_h = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = inter_w * inter_h
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    hull = (max(a[2], b[2]) - min(a[0], b[0])) * (max(a[3], b[3]) - min(a[1], b[1]))
    if union == 0.0:
        return 1.0 if hull == 0.0 else -1.0
    return float(inter / union - (hull - union) / hull)


def pairwise_cost(pred_boxes, gt_boxes, literal_giou_cost: bool = False) -> Array:
    """K×N matching costs: L1 plus the GIoU term.

    The minimizing convention is l1 + (1 - giou); the literal switch uses
    l1 + giou instead.
    """
    pred = np.atleast_2d(np.asarray(pred_boxes, dtype=np.float64))
    gt = np.atleast_2d(np.asarray(gt_boxes, dtype=np.float64))
    out = np.empty((pred.shape[0], gt.shape[0]))
    for i in range(pred.shape[0]):
        for j in range(gt.shape[0]):
            g = giou(pred[i], gt[j])
            term = g if literal_giou_cost else 1.0 - g
            out[i, j] = l1_box(pred[i], gt[j]) + term
    return out


# ----------------------------------------------------------------------
# Rectangular Hungarian matching

_PAD = 0.0


def _solve_square(cost: Array) -> Array:
    """Minimum-cost perfect matching on a square matrix via shortest
    augmenting paths with potentials; returns row index per column."""
    n = cost.shape[0]
    a = np.zeros((n + 1, n + 1))
    a[1:, 1:] = cost
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = np.inf
            j1 = 0
            free = ~used
            free[0] = False
            cur = a[i0, 1:] - u[i0] - v[1:]
            cols = np.where(free[1:])[0] + 1
            improved = cur[cols - 1] < minv[cols]
            minv[cols[improved]] = cur[cols - 1][improved]
            way[cols[improved]] = j0
            j1 = cols[np.argmin(minv[cols])]
            delta = minv[j1]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_for_col = np.empty(n, dtype=int)
    row_for_col[:] = p[1:] - 1
    return row_for_col


def _min_cost(cost: Array) -> float:
    """Optimal total over maximum-cardinality assignments of a K×N matrix."""
    k, n = cost.shape
    size = max(k, n)
    padded = np.full((size, size), _PAD)
    padded[:k, :n] = cost
    row_for_col = _solve_square(padded)
    total = 0.0
    for j in range(n):
        if row_for_col[j] < k:
            total += cost[row_for_col[j], j]
    return total


def hungarian(cost) -> Assignment:
    """Maximum-cardinality minimum-cost assignment with a deterministic
    tie-break: the lexicographically smallest sorted pair list among optima."""
    cost = np.atleast_2d(np.asarray(cost, dtype=np.float64))
    if not np.all(np.isfinite(cost)):
        raise ValueError("costs must be finite")
    k, n = cost.shape
    need = min(k, n)
    best = _min_cost(cost)
    tol = 1e-9 * max(1.0, abs(best))

    pairs: list[tuple[int, int]] = []
    fixed = 0.0
    rows_left = list(range(k))
    cols_left = list(range(n))
    for i in range(k):
        if len(pairs) == need:
            break
        rows_rest = [r for r in rows_left if r > i]
        matched_here = None
        for j in sorted(cols_left):
            remaining_need = need - len(pairs) - 1
            if remaining_need > len(rows_rest) or remaining_need > len(cols_left) - 1:
                continue
            sub_cols = [c for c in cols_left if c != j]
            candidate = fixed + cost[i, j]
            if remaining_need > 0:
                candidate += _min_cost(cost[np.ix_(rows_rest, sub_cols)])
            if candidate <= best + tol:
                matched_here = j
                break
        if matched_here is not None:
            pairs.append((i, matched_here))
            fixed += cost[i, matched_here]
            cols_left.remove(matched_here)
        rows_left.remove(i)

    total = 0.0
    for i, j in pairs:
        total += cost[i, j]
    matched_rows = {i for i, _ in pairs}
    unmatched = tuple(i for i in range(k) if i not in matched_rows)
    return Assignment(pairs=tuple(pairs), unmatched_slots=unmatched, cost=float(total))


# ----------------------------------------------------------------------
# Caption handling


def concat_captions(captions: Sequence[str], seed: int) -> str:
    """Seeded random permutation of the captions joined with '. '."""
    if not captions:
        raise ValueError("cannot concatenate an empty caption list")
    order = np.random.default_rng(seed).permutation(len(captions))
    return ". ".join(captions[i] for i in order)


# ----------------------------------------------------------------------
# Graph pieces shared by the loss builders


def _ce_rows(g: Graph, logits: Node, targets: Sequence[int]) -> Node:
    """Mean cross-entropy of logits rows against integer targets."""
    m, n = logits.shape
    if len(targets) != m:
        raise ValueError("one target per logit row required")
    onehot = np.zeros((m, n))
    for r, t in enumerate(targets):
        onehot[r, t] = 1.0
    picked = g.sum(g.multiply(g.log_softmax(logits, axis=1), g.constant(onehot)))
    return g.affine(picked, -1.0 / m, 0.0)


def _symmetric_ce(g: Graph, image_rows: Node, text_rows: Node, tau: float) -> Node:
    b = image_rows.shape[0]
    logits = g.affine(g.matmul(image_rows, g.transpose(text_rows)), 1.0 / tau, 0.0)
    diag = list(range(b))
    by_image = _ce_rows(g, logits, diag)
    by_text = _ce_rows(g, g.transpose(logits), diag)
    return g.affine(g.add(by_image, by_text), 0.5, 0.0)


def _column(g: Graph, boxes: Node, j: int) -> Node:
    return g.slice_columns(boxes, j, j + 1)


def _giou_columns(g: Graph, pred: Node, gt: Array) -> Node:
    """Vectorized GIoU values for row-aligned boxes; expects positive unions."""
    m = pred.shape[0]
    gx1 = g.constant(gt[:, 0:1])
    gy1 = g.constant(gt[:, 1:2])
    gx2 = g.constant(gt[:, 2:3])
    gy2 = g.constant(gt[:, 3:4])
    px1, py1 = _column(g, pred, 0), _column(g, pred, 1)
    px2, py2 = _column(g, pred, 2), _column(g, pred, 3)
    zero = g.constant(np.zeros((m, 1)))

    iw = g.maximum(g.subtract(g.minimum(px2, gx2), g.maximum(px1, gx1)), zero)
    ih = g.maximum(g.subtract(g.minimum(py2, gy2), g.maximum(py1, gy1)), zero)
    inter = g.multiply(iw, ih)
    area_p = g.multiply(g.subtract(px2, px1), g.subtract(py2, py1))
    area_g = g.constant((gt[:, 2] - gt[:, 0])[:, None] * (gt[:, 3] - gt[:, 1])[:, None])
    union = g.subtract(g.add(area_p, area_g), inter)
    hw = g.subtract(g.maximum(px2, gx2), g.minimum(px1, gx1))
    hh = g.subtract(g.maximum(py2, gy2), g.minimum(py1, gy1))
    hull = g.multiply(hw, hh)
    return g.subtract(g.divide(inter, union),
                      g.divide(g.subtract(hull, union), hull))


# ----------------------------------------------------------------------
# Standalone loss operations (evaluated eagerly through small graphs)


def contrastive_loss(image_embeddings, text_embeddings, tau: float = 0.07) -> float:
    """Symmetric batch cross-entropy over cosine logits with diagonal targets."""
    imgs = np.atleast_2d(np.asarray(image_embeddings, dtype=np.float64))
    txts = np.atleast_2d(np.asarray(text_embeddings, dtype=np.float64))
    if imgs.shape[0] == 0:
        raise ValueError("contrastive loss needs at least one pair")
    if imgs.shape != txts.shape:
        raise ValueError(f"embedding shapes differ: {imgs.shape} vs {txts.shape}")
    g = Graph()
    node = _symmetric_ce(g, g.constant(imgs), g.constant(txts), tau)
    return float(g.evaluate(node))


def multilabel_contrastive_loss(slots: Array, text_embeddings: Array,
                                assignment: Assignment, store: ParamStore,
                                tau: float = 0.07) -> MultilabelLoss:
    """Cross-entropy of projected matched slots against all batch annotation
    texts, the assigned annotation being the target class."""
    slots = np.asarray(slots, dtype=np.float64)
    texts = np.atleast_2d(np.asarray(text_embeddings, dtype=np.float64))
    if not assignment.pairs:
        return MultilabelLoss(value=0.0, empty=True)
    g = Graph()
    bind = Binding(g, store, trainable=False)
    matched = g.gather(g.constant(slots), [i for i, _ in assignment.pairs], axis=0)
    node = _multilabel_node(g, bind, matched, g.constant(texts),
                            [j for _, j in assignment.pairs], tau)
    return MultilabelLoss(value=float(g.evaluate(node)), empty=False)


def _multilabel_node(g: Graph, bind: Binding, matched: Node, all_texts: Node,
                     targets: Sequence[int], tau: float) -> Node:
    """Shared builder: project matched slot rows, normalize, CE against all
    texts, row r's target being text targets[r]."""
    projected = g.add(g.matmul(matched, bind("mc.proj.w")), bind("mc.proj.b"))
    norms = g.sqrt(g.sum(g.multiply(projected, projected), axis=1))
    unit = g.row_divide(projected, norms)
    logits = g.affine(g.matmul(unit, g.transpose(all_texts)), 1.0 / tau, 0.0)
    return _ce_rows(g, logits, targets)


# ----------------------------------------------------------------------
# Total loss


@dataclass
class TrainExample:
    """One image with its grounded captions."""

    image: Array
    annotations: AnnotationSet


@dataclass
class TotalLossGraph:
    """Differentiable total loss plus the evaluated per-component report.

    frame holds the values of every node the report evaluated, for
    graph.gradient(total, frame=frame); it stays valid for the life of the
    graph, whose parameter values are fixed when it is built.
    """

    graph: Graph
    total: Node
    report: LossReport
    assignments: list[Assignment]
    components: dict[str, Node]
    concatenated_captions: list[str]
    frame: Frame


def total_loss_graph(batch: Sequence[TrainExample], store: ParamStore,
                     weights: LossWeights, config: EncoderConfig,
                     seed: int,
                     text_cache: MutableMapping[str, Array] | None = None) -> TotalLossGraph:
    """Build and evaluate the full objective for one batch.

    Caption and slot randomness derive from the given seed; pass the training
    step there so each step resamples both.  text_cache maps caption text to
    a precomputed frozen embedding row; it is filled in place so callers can
    reuse it across steps.
    """
    if len(batch) == 0:
        raise ValueError("batch must contain at least one example")
    g = Graph()
    bind = Binding(g, store, trainable=True)
    cache: MutableMapping[str, Array] = text_cache if text_cache is not None else {}

    def text_row(text: str) -> Array:
        if text not in cache:
            cache[text] = encode_text(text, store, config).vector
        return cache[text]

    # One image tower per distinct image shape, in first-appearance order;
    # a batch of one image size builds one.  order lists the batch indices
    # in the towers' row order, which every loss term below follows.
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, example in enumerate(batch):
        groups.setdefault(np.shape(example.image), []).append(i)
    order = [i for members in groups.values() for i in members]
    towers = [build_image_embedding(
        g, bind, np.stack([batch[i].image for i in members]), config,
        np.stack([sample_slots(config, derive_seed(seed, "slots", i)) for i in members]))
        for members in groups.values()]

    def stacked(key: str) -> Node:
        """One tower output over the whole batch, one row per image or slot."""
        parts = [g.reshape(t[key], (int(np.prod(t[key].shape[:-1])), t[key].shape[-1]))
                 for t in towers]
        return parts[0] if len(parts) == 1 else g.concat(parts, axis=0)

    # Assignments are computed on box values, then baked into the graph.
    frame = Frame()
    box_values = g.evaluate([t["boxes"] for t in towers], frame=frame)
    boxes_of = dict(zip(order, (boxes for values in box_values for boxes in values)))
    assignments = [hungarian(pairwise_cost(boxes_of[i], example.annotations.boxes(),
                                           literal_giou_cost=weights.literal_giou_cost))
                   for i, example in enumerate(batch)]

    # Contrastive branch: image embeddings vs concatenated-caption embeddings.
    cat_texts = [concat_captions(ex.annotations.captions(), derive_seed(seed, "captions", i))
                 for i, ex in enumerate(batch)]
    text_rows = g.constant(np.stack([text_row(cat_texts[i]) for i in order]))
    l_c = _symmetric_ce(g, stacked("embedding"), text_rows, weights.tau)

    # Matched slots and boxes as rows of the (B·K, ·) tower outputs.  Every
    # image has an annotation and a slot, so each image matches at least one
    # pair.  The box losses average over matched pairs across the batch; the
    # multi-label term scores each matched slot against all batch annotations.
    k = config.num_slots
    rows: list[int] = []
    gt_rows: list[Array] = []
    targets: list[int] = []
    ann_texts: list[str] = []
    for p, i in enumerate(order):
        annotations = batch[i].annotations
        for s, j in assignments[i].pairs:
            rows.append(p * k + s)
            gt_rows.append(annotations.annotations[j].box)
            targets.append(len(ann_texts) + j)
        ann_texts.extend(annotations.captions())
    pred = g.gather(stacked("boxes"), rows, axis=0)
    gt = np.stack(gt_rows)
    l_l1 = g.affine(g.sum(g.absolute(g.subtract(pred, g.constant(gt)))), 1.0 / len(rows), 0.0)
    l_giou = g.affine(g.mean(_giou_columns(g, pred, gt)), -1.0, 1.0)
    all_texts = g.constant(np.stack([text_row(t) for t in ann_texts]))
    l_mc = _multilabel_node(g, bind, g.gather(stacked("slots"), rows, axis=0),
                            all_texts, targets, weights.tau)

    total = g.affine(l_c, weights.alpha, 0.0)
    total = g.add(total, g.affine(l_l1, weights.beta, 0.0))
    total = g.add(total, g.affine(l_giou, weights.gamma, 0.0))
    total = g.add(total, g.affine(l_mc, weights.delta, 0.0))

    values = g.evaluate([l_c, l_l1, l_giou, l_mc, total], check=False, frame=frame)
    report = LossReport(L_C=float(values[0]), L_L1=float(values[1]),
                        L_GIoU=float(values[2]), L_MC=float(values[3]),
                        total=float(values[4]))
    return TotalLossGraph(graph=g, total=total, report=report, assignments=assignments,
                          components={"L_C": l_c, "L_L1": l_l1, "L_GIoU": l_giou, "L_MC": l_mc},
                          concatenated_captions=cat_texts, frame=frame)


def total_loss(batch: Sequence[TrainExample], store: ParamStore, weights: LossWeights,
               config: EncoderConfig, seed: int = 0,
               text_cache: MutableMapping[str, Array] | None = None) -> LossReport:
    """Evaluate the weighted objective for one batch."""
    return total_loss_graph(batch, store, weights, config, seed, text_cache).report


# ----------------------------------------------------------------------
# Loss log lines


def format_loss_line(step: int, report: LossReport) -> str:
    return (f"{step},{report.L_C!r},{report.L_L1!r},{report.L_GIoU!r},"
            f"{report.L_MC!r},{report.total!r}")


def parse_loss_line(line: str) -> tuple[int, LossReport]:
    parts = line.strip().split(",")
    if len(parts) != 6:
        raise ValueError(f"expected 6 comma-separated fields, got {len(parts)}")
    return int(parts[0]), LossReport(L_C=float(parts[1]), L_L1=float(parts[2]),
                                     L_GIoU=float(parts[3]), L_MC=float(parts[4]),
                                     total=float(parts[5]))
