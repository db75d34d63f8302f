"""Training objectives: box geometry, Hungarian matching, contrastive losses.

The total loss is one differentiable scalar, built once per store and batch
shape key (its image stacks' shapes, its matched pairs and its annotations)
over the store's views, and evaluated in two phases over one frame per
step.  The step binds the images, the initial slots and the caption
embeddings, and evaluates the boxes, which fills the frame with the image
towers.  The rectangular
assignment between slots and annotations is computed on those values and
bound into the same frame as data: a 0/1 matrix selecting the matched
slots, their annotation boxes and the multi-label targets.  Gradients flow
through every matched slot and box while the match stays a constant of the
step.  The loss report then runs only the loss head, and the frame is kept
on TotalLossGraph so the gradient starts from it: each node of the step is
evaluated once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Frame, Graph, Node, ParamStore
from .encoder import (Binding, EncoderConfig, _normalize_rows, build_image_embedding,
                      check_field_types, encode_text, patchify, sample_slots)

Array = np.ndarray


# ----------------------------------------------------------------------
# Domain types


def _check_box(box, ndim: int = 1) -> Array:
    """One float64 corner box, or with ndim=2 an (M, 4) array of them."""
    box = np.asarray(box, dtype=np.float64)
    if box.ndim != ndim or box.shape[-1] != 4:
        raise ValueError(f"box must have 4 coordinates, got shape {box.shape}")
    if not np.isfinite(box).all():
        raise ValueError("box coordinates must be finite")
    x1, y1, x2, y2 = box.T
    bad = (x1 > x2) | (y1 > y2)
    if bad.any():
        raise ValueError(f"box corners out of order: {box[bad][0].tolist()}")
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
        check_field_types(self)
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


# ----------------------------------------------------------------------
# Box geometry


def pairwise_cost(pred_boxes, gt_boxes, literal_giou_cost: bool = False) -> Array:
    """K×N matching costs: L1 plus the GIoU term.

    The minimizing convention is l1 + (1 - giou); the literal switch uses
    l1 + giou instead.  A zero union gives GIoU 1 for coincident boxes and
    -1 for distinct ones.  One broadcast in the operation order of the
    scalar references in tests/_oracles.py, so each entry equals theirs
    bit for bit.
    """
    pred = _check_box(np.atleast_2d(pred_boxes), ndim=2)
    gt = _check_box(np.atleast_2d(gt_boxes), ndim=2)
    d = np.abs(pred[:, None] - gt[None])
    l1 = d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]
    ax1, ay1, ax2, ay2 = pred.T[:, :, None]
    bx1, by1, bx2, by2 = gt.T[:, None, :]
    inter = (np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
             * np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1)))
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    hull = ((np.maximum(ax2, bx2) - np.minimum(ax1, bx1))
            * (np.maximum(ay2, by2) - np.minimum(ay1, by1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(union == 0.0, np.where(hull == 0.0, 1.0, -1.0),
                     inter / union - (hull - union) / hull)
    return l1 + (g if literal_giou_cost else 1.0 - g)


# ----------------------------------------------------------------------
# Rectangular matching


# hungarian enumerates assignments while there are at most this many: every
# shape up to 6×6, and up to 10×3 and 3×10.
_ENUMERATED_ASSIGNMENTS = 720


def hungarian(blocks: Sequence) -> list[Assignment]:
    """For each cost block, the maximum-cardinality minimum-cost assignment
    with a deterministic tie-break: the lexicographically smallest sorted
    pair list among optima.

    Exact, with no tolerance.  Up to _ENUMERATED_ASSIGNMENTS assignments, the
    training shapes among them, the result is enumeration's to the bit, and
    the blocks of one shape share one enumeration.  Larger shapes take a
    polynomial solver that compares exact sums of the same costs instead of
    row-order float sums; the two differ only where rounding reorders or
    ties two totals.  A cost is returned as the row-order sum.
    """
    blocks = [np.atleast_2d(np.asarray(cost, dtype=np.float64)) for cost in blocks]
    by_shape: dict[tuple[int, int], list[int]] = {}
    for b, cost in enumerate(blocks):
        by_shape.setdefault(cost.shape, []).append(b)
    out: list = [None] * len(blocks)
    for (k, n), members in by_shape.items():
        costs = np.stack([blocks[b] for b in members])
        if not np.isfinite(costs).all():
            raise ValueError("costs must be finite")
        small = math.perm(max(k, n), min(k, n)) <= _ENUMERATED_ASSIGNMENTS
        for cost, b, pairs in zip(costs, members, _enumerated_pairs(costs) if small
                                  else map(_exact_sum_pairs, costs)):
            total = 0.0
            for i, j in pairs:
                total += cost[i, j]
            unmatched = tuple(sorted(set(range(k)) - {i for i, _ in pairs}))
            out[b] = Assignment(pairs=tuple(pairs), unmatched_slots=unmatched, cost=float(total))
    return out


@functools.lru_cache(maxsize=16)
def _assignment_codes(k: int, n: int) -> Array:
    """Every maximum-cardinality assignment of a K×N cost matrix, one row
    each, ascending: the row's column, or N for a row left out, so codes
    order as pair lists do.  Built once per shape and read-only, since
    every call shares it."""
    m = min(k, n)
    perms = itertools.chain.from_iterable(itertools.permutations(range(max(k, n)), m))
    cols = np.fromiter(perms, dtype=np.intp).reshape(math.perm(max(k, n), m), m)
    if k > n:
        # Here each permutation gives the columns their rows.
        codes = np.full((len(cols), k), n)
        np.put_along_axis(codes, cols, np.arange(n), axis=1)
        cols = codes[np.lexsort(codes.T[::-1])]
    cols.setflags(write=False)
    return cols


def _enumerated_pairs(costs: Array) -> list[list[tuple[int, int]]]:
    """hungarian's pairs for each of a stack of same-shape blocks, by
    enumerating every maximum-cardinality assignment.  Totals add in row
    order from 0.0, a row left out adding an exact 0.0, as the brute-force
    reference sums; the first, least, code among a block's least totals wins."""
    _, k, n = costs.shape
    cols = _assignment_codes(k, n)
    padded = np.concatenate([costs, np.zeros(costs.shape[:2] + (1,))], axis=2)
    total = np.zeros((len(costs), len(cols)))
    for i in range(k):
        total += padded[:, i, cols[:, i]]
    return [[(i, j) for i, j in enumerate(code) if j < n]
            for code in cols[total.argmin(axis=1)].tolist()]


def _exact_sum_pairs(cost: Array) -> list[tuple[int, int]]:
    """hungarian's pairs by exact sums: shortest augmenting paths over
    integer costs, O(min(K, N)² max(K, N)) steps.

    Every finite double is an integer over a power of two, so one common
    denominator makes the costs exact integers.  An assignment's columns
    read by row, N for a row left out, form a base-(N+1) number below
    (N+1)**K that orders assignments lexicographically; it is added to the
    costs scaled by (N+1)**K, so the one least weight is the least exact
    sum and, among equal sums, the lexicographically first pairs.
    """
    k, n = cost.shape
    ratios = [x.as_integer_ratio() for x in cost.ravel().tolist()]
    den = max(d for _, d in ratios)
    base = n + 1
    weight = np.array([[p * (den // d) * base ** k + (j - n) * base ** (k - 1 - i)
                        for j, (p, d) in enumerate(ratios[i * n:(i + 1) * n])]
                       for i in range(k)], dtype=object)
    # Paths grow from each row of the shorter side.
    flip = k > n
    if flip:
        weight = weight.T
    rows, cols = weight.shape
    u, v = np.zeros(rows, dtype=object), np.zeros(cols, dtype=object)
    row_of, col_of = np.full(cols, -1), np.full(rows, -1)
    for start in range(rows):
        # Dijkstra from row start; reduced costs weight - u - v of matched
        # rows are nonnegative, so a settled column's distance is final.
        dist = weight[start] - u[start] - v
        via = np.full(cols, start)
        done = np.zeros(cols, dtype=bool)
        while True:
            free = np.flatnonzero(~done)
            j = free[np.argmin(dist[free])]
            done[j] = True
            i = row_of[j]
            if i < 0:
                break
            free = free[free != j]
            reach = dist[j] + weight[i, free] - u[i] - v[free]
            closer = reach < dist[free]
            dist[free[closer]] = reach[closer]
            via[free[closer]] = i
        # Shift potentials so reduced costs stay nonnegative and the path's
        # pairs cost zero, then flip the path that ends at free column j.
        seen = np.flatnonzero(done)
        inner = seen[seen != j]
        u[start] += dist[j]
        u[row_of[inner]] += dist[j] - dist[inner]
        v[seen] -= dist[j] - dist[seen]
        while True:
            i = via[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
            if i == start:
                break
    if flip:
        return sorted((int(i), j) for j, i in enumerate(col_of))
    return [(i, int(j)) for i, j in enumerate(col_of)]


# ----------------------------------------------------------------------
# Caption handling


def concat_captions(captions: Sequence[str], rng: np.random.Generator) -> str:
    """The captions in an order rng draws, joined with '. '."""
    if not captions:
        raise ValueError("cannot concatenate an empty caption list")
    order = rng.permutation(len(captions))
    return ". ".join(captions[i] for i in order)


# ----------------------------------------------------------------------
# Graph pieces of the loss


def _onehot(targets: Sequence[int], n: int) -> Array:
    """One row per target, 1.0 in its column."""
    onehot = np.zeros((len(targets), n))
    onehot[np.arange(len(targets)), targets] = 1.0
    return onehot


def _ce_rows(g: Graph, logits: Node, onehot: Node) -> Node:
    """Mean cross-entropy of logits rows against one-hot target rows."""
    picked = g.sum(g.multiply(g.log_softmax(logits, axis=1), onehot))
    return g.affine(picked, -1.0 / logits.shape[0], 0.0)


def _symmetric_ce(g: Graph, image_rows: Node, text_rows: Node, tau: float) -> Node:
    logits = g.affine(g.matmul(image_rows, g.transpose(text_rows)), 1.0 / tau, 0.0)
    diag = g.constant(np.eye(image_rows.shape[0]))
    by_image = _ce_rows(g, logits, diag)
    by_text = _ce_rows(g, g.transpose(logits), diag)
    return g.affine(g.add(by_image, by_text), 0.5, 0.0)


def _giou_columns(g: Graph, pred: Node, gt: Node) -> Node:
    """Vectorized GIoU values for row-aligned boxes, as an (M, 1) column;
    expects positive unions.  Each box's corners are (x1, y1) and (x2, y2)."""
    p1, p2, g1, g2 = (g.slice(boxes, lo, lo + 2) for boxes in (pred, gt) for lo in (0, 2))

    def area(sides: Node) -> Node:
        return g.multiply(g.slice(sides, 0, 1), g.slice(sides, 1, 2))

    inter = area(g.maximum(g.subtract(g.minimum(p2, g2), g.maximum(p1, g1)),
                           g.constant(0.0, name="giou.zero")))
    union = g.subtract(g.add(area(g.subtract(p2, p1)), area(g.subtract(g2, g1))), inter)
    hull = area(g.subtract(g.maximum(p2, g2), g.minimum(p1, g1)))
    return g.subtract(g.divide(inter, union), g.divide(g.subtract(hull, union), hull))


def _multilabel_node(g: Graph, bind: Binding, matched: Node, all_texts: Node,
                     targets: Node, tau: float) -> Node:
    """Multi-label term: project matched slot rows, normalize, CE against
    all texts, row r's target being the text where one-hot row r holds 1."""
    unit = _normalize_rows(g, g.linear(matched, bind("mc.proj.w"), bind("mc.proj.b")))
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
    """Differentiable total loss, its evaluated per-component report and
    each image's box assignment.

    frame holds this step's binding and the values of every node the report
    evaluated, for graph.gradient(total, frame=frame).  The store keeps the
    graph for later calls of its shape key; each binds a frame of its own,
    and the latest is the graph's current binding.
    """

    graph: Graph
    total: Node
    report: LossReport
    assignments: list[Assignment]
    frame: Frame


@dataclass
class _StepGraph:
    """The loss graph of one batch shape key: the image towers and the data
    inputs a step binds, the components and total."""

    graph: Graph
    towers: list[dict]
    inputs: dict[str, Node]
    components: dict[str, Node]
    total: Node


def _build_step_graph(stacks: Sequence[Array], slots0: Sequence[Array], matched: int,
                      annotations: int, store: ParamStore, weights: LossWeights,
                      config: EncoderConfig) -> _StepGraph:
    """The loss graph over one image tower per stack, in tower order, with
    matched slot-annotation pairs among all the batch's annotations."""
    g = Graph()
    bind = Binding(g, store)
    towers = [build_image_embedding(g, bind, stack, config, s0)
              for stack, s0 in zip(stacks, slots0)]

    def stacked(key: str) -> Node:
        """One tower output over the whole batch, one row per image or slot."""
        parts = [g.reshape(t[key], (math.prod(t[key].shape[:-1]), t[key].shape[-1]))
                 for t in towers]
        return parts[0] if len(parts) == 1 else g.concat(parts, axis=0)

    images = sum(len(s) for s in stacks)
    inputs = {name: g.input(shape, name) for name, shape in (
        ("captions", (images, config.dim)), ("annotations", (annotations, config.dim)),
        ("select", (matched, images * config.num_slots)), ("gt", (matched, 4)),
        ("targets", (matched, annotations)))}

    # Contrastive branch: image embeddings vs concatenated-caption embeddings.
    l_c = _symmetric_ce(g, stacked("embedding"), inputs["captions"], weights.tau)

    # Matched slots and boxes as rows of the (B·K, ·) tower outputs, picked
    # by a 0/1 matrix: each row holds one 1, and each slot is matched at
    # most once, so the product and its backward add only exact zeros.  The
    # box losses average over matched pairs across the batch; the
    # multi-label term scores each matched slot against all batch
    # annotations.
    pred = g.matmul(inputs["select"], stacked("boxes"))
    gt = inputs["gt"]
    l_l1 = g.affine(g.sum(g.absolute(g.subtract(pred, gt))), 1.0 / matched, 0.0)
    l_giou = g.affine(g.mean(_giou_columns(g, pred, gt)), -1.0, 1.0)
    l_mc = _multilabel_node(g, bind, g.matmul(inputs["select"], stacked("slots")),
                            inputs["annotations"], inputs["targets"], weights.tau)

    total = g.affine(l_c, weights.alpha, 0.0)
    total = g.add(total, g.affine(l_l1, weights.beta, 0.0))
    total = g.add(total, g.affine(l_giou, weights.gamma, 0.0))
    total = g.add(total, g.affine(l_mc, weights.delta, 0.0))
    return _StepGraph(graph=g, towers=towers, inputs=inputs, total=total,
                      components={"L_C": l_c, "L_L1": l_l1, "L_GIoU": l_giou, "L_MC": l_mc})


def total_loss_graph(batch: Sequence[TrainExample], store: ParamStore,
                     weights: LossWeights, config: EncoderConfig,
                     seed: int) -> TotalLossGraph:
    """Bind and evaluate the full objective for one batch.

    Slots and caption orders come from one generator seeded with seed: every
    example's initial slots first, as one (B, K, ds) draw in batch order,
    then each example's caption order.  Pass the training step's sub-seed
    there so each step resamples both.  The loss graph of each batch
    shape key is kept in the store's graphs, so later calls of its key
    rebind it, and the caption rows come from encode_text, which keeps them.
    """
    if len(batch) == 0:
        raise ValueError("batch must contain at least one example")

    # One image tower per distinct image shape, in first-appearance order;
    # a batch of one image size builds one.  order lists the batch indices
    # in the towers' row order, which every loss term follows.
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, example in enumerate(batch):
        groups.setdefault(np.shape(example.image), []).append(i)
    order = [i for members in groups.values() for i in members]
    stacks = [np.stack([batch[i].image for i in members]) for members in groups.values()]
    rng = np.random.default_rng(seed)
    slots = sample_slots(config, rng, (len(batch),))
    slots0 = [slots[members] for members in groups.values()]
    cat_texts = [concat_captions(ex.annotations.captions(), rng) for ex in batch]
    counts = [len(ex.annotations) for ex in batch]
    matched = sum(min(config.num_slots, n) for n in counts)

    def build() -> _StepGraph:
        return _build_step_graph(stacks, slots0, matched, sum(counts), store, weights, config)

    # The graph's shape: its towers' stack shapes, in tower order, and the
    # matched and annotation counts, for hungarian matches min(K, N) pairs
    # in each image.  Which image holds which annotation is bound data.
    step = store.graphs.get(
        ("loss", config, weights, tuple(s.shape for s in stacks), matched, sum(counts)), build)
    g = step.graph

    def text_row(text: str) -> Array:
        return encode_text(text, store, config).vector

    ann_texts = [t for i in order for t in batch[i].annotations.captions()]
    leaves = {}
    for tower, stack, s0 in zip(step.towers, stacks, slots0):
        leaves[tower["patches"]] = patchify(stack, config.patch_size)
        leaves[tower["slots0"]] = s0
    leaves[step.inputs["captions"]] = np.stack([text_row(cat_texts[i]) for i in order])
    leaves[step.inputs["annotations"]] = np.stack([text_row(t) for t in ann_texts])
    frame = g.bind(leaves)

    # Assignments are computed on box values, then bound as data.  The cost
    # rows are the slots of the images in tower order and its columns their
    # annotations, so image p's block starts at row p·K and at column
    # firsts[p], the row and the text index its matched pairs take.
    pred_boxes = np.concatenate([values.reshape(-1, 4) for values in g.evaluate(
        [t["boxes"] for t in step.towers], frame=frame)])
    gt_boxes = np.concatenate([batch[i].annotations.boxes() for i in order])
    cost = pairwise_cost(pred_boxes, gt_boxes, literal_giou_cost=weights.literal_giou_cost)
    k = config.num_slots
    firsts = np.cumsum([0] + [counts[i] for i in order]).tolist()
    matches = hungarian([cost[p * k:(p + 1) * k, firsts[p]:firsts[p + 1]]
                         for p in range(len(order))])
    assignments: list[Assignment] = [None] * len(batch)
    rows: list[int] = []
    targets: list[int] = []
    for p, i in enumerate(order):
        assignments[i] = matches[p]
        for s, j in matches[p].pairs:
            rows.append(p * k + s)
            targets.append(firsts[p] + j)
    g.bind({step.inputs["select"]: _onehot(rows, len(pred_boxes)),
            step.inputs["gt"]: gt_boxes[targets],
            step.inputs["targets"]: _onehot(targets, firsts[-1])}, frame=frame)

    c = step.components
    report = LossReport(*map(float, g.evaluate(
        [c["L_C"], c["L_L1"], c["L_GIoU"], c["L_MC"], step.total], frame=frame)))
    return TotalLossGraph(graph=g, total=step.total, report=report, assignments=assignments,
                          frame=frame)


# ----------------------------------------------------------------------
# Loss log lines


def format_loss_line(step: int, report: LossReport) -> str:
    return (f"{step},{report.L_C!r},{report.L_L1!r},{report.L_GIoU!r},"
            f"{report.L_MC!r},{report.total!r}")

