"""Brute-force reference implementations, runners of single encoder stages,
and small store helpers, shared by unit and acceptance tests."""

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from slotnav.autodiff import Graph, ParamStore
from slotnav.encoder import (Binding, _patch_tokens, build_image_embedding,
                             build_slot_attention, patchify)


def brute_force_assignment(cost):
    """Enumerate every maximum-cardinality assignment; minimum cost wins,
    ties resolved by lexicographically smallest sorted pair list."""
    cost = np.asarray(cost, dtype=np.float64)
    k, n = cost.shape
    best_total = None
    best_pairs = None
    if k <= n:
        candidates = (tuple((i, cols[i]) for i in range(k))
                      for cols in itertools.permutations(range(n), k))
    else:
        candidates = (tuple(sorted((rows[j], j) for j in range(n)))
                      for rows in itertools.permutations(range(k), n))
    for pairs in candidates:
        total = 0.0
        for i, j in pairs:
            total += cost[i, j]
        if best_total is None or total < best_total or \
                (total == best_total and pairs < best_pairs):
            best_total = total
            best_pairs = pairs
    return best_total, best_pairs


def exact_sum_assignment(cost):
    """brute_force_assignment's pairs when totals are exact rational sums
    of the costs rather than row-order float sums."""
    cost = np.asarray(cost, dtype=np.float64)
    k, n = cost.shape
    if k <= n:
        candidates = (tuple((i, cols[i]) for i in range(k))
                      for cols in itertools.permutations(range(n), k))
    else:
        candidates = (tuple(sorted((rows[j], j) for j in range(n)))
                      for rows in itertools.permutations(range(k), n))
    return min(candidates,
               key=lambda pairs: (sum(Fraction(cost[i, j]) for i, j in pairs), pairs))


def l1_box(a, b):
    """Sum of absolute corner differences."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.abs(a - b).sum())


def giou(a, b):
    """Generalized IoU value in (-1, 1]: IoU minus the hull penalty.

    Degenerate corners: union 0 with coincident boxes returns 1 (perfect
    match convention); union 0 with distinct boxes returns -1.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    inter_w = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    inter_h = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = inter_w * inter_h
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    hull = (max(a[2], b[2]) - min(a[0], b[0])) * (max(a[3], b[3]) - min(a[1], b[1]))
    if union == 0.0:
        return 1.0 if hull == 0.0 else -1.0
    return float(inter / union - (hull - union) / hull)


def iou(a, b):
    """Plain intersection over union for corner boxes."""
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def random_box(rng, scale=1.0):
    """Random valid corner box with positive area."""
    x1, y1 = rng.random(2) * 0.8 * scale
    w, h = 0.05 + rng.random(2) * (scale - 0.05)
    return np.array([x1, y1, min(x1 + w, scale), min(y1 + h, scale)])


def breadth_first_path(grid, start, goal):
    """Shortest 4-connected path over a boolean occupancy grid, as cell
    (col, row) tuples inclusive of both endpoints; [] if unreachable."""
    rows, cols = grid.shape
    if grid[start[1], start[0]] or grid[goal[1], goal[0]]:
        return []
    parent = {start: None}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        if cell == goal:
            path = []
            while cell is not None:
                path.append(cell)
                cell = parent[cell]
            return path[::-1]
        x, y = cell
        for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nxt = (x + dx, y + dy)
            if 0 <= nxt[0] < cols and 0 <= nxt[1] < rows \
                    and not grid[nxt[1], nxt[0]] and nxt not in parent:
                parent[nxt] = cell
                queue.append(nxt)
    return []


def format_world(world):
    """Inverse of slotnav.navsim.parse_world."""
    rows = ["".join("#" if world.grid[r, c] else "."
                    for c in range(world.cols))
            for r in range(world.rows)]
    table = [f"{o.object_id} {o.noun} {o.cell[0]} {o.cell[1]}" for o in world.objects]
    return "\n".join(rows) + ("\n\n" + "\n".join(table) + "\n" if table else "\n")


def save_world(world, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_world(world))


def ranked_ids(scores, ids):
    """Order ids by descending score, ties by ascending id, via selection."""
    remaining = list(range(len(ids)))
    out = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best] or \
                    (scores[i] == scores[best] and ids[i] < ids[best]):
                best = i
        out.append(ids[best])
        remaining.remove(best)
    return out


def run_every_node(graph, outputs, frame):
    """Check after every node: run each node outputs depend on and frame
    has no value for, in ascending index order, with no test in between.
    Returns the name of the first node with a non-finite entry (None if
    every one is finite) and the values, the frame's left unchanged."""
    seen = set()
    stack = [n.index for n in outputs]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            stack.extend(graph._parents[i])
    values = list(frame.values)
    first = None
    with np.errstate(all="ignore"):
        for i in sorted(seen):
            if values[i] is None:
                values[i] = graph._forward[i](values)
                if first is None and not np.isfinite(values[i]).all():
                    first = graph._names[i]
    return first, values


def image_tokens(image, store, config):
    """Evaluated tokens and pooled rows of the encoder's patch transformer
    over one image or a stack, its patches a constant."""
    g = Graph()
    patches = g.constant(patchify(image, config.patch_size), name="patches")
    return g.evaluate(list(_patch_tokens(g, Binding(g, store), patches,
                                         config)))


@dataclass
class SlotState:
    """Slots with the attention and column-normalized weights that produced them."""

    slots: np.ndarray
    attention: np.ndarray
    weights: np.ndarray
    iteration: int
    history: tuple = ()


def slot_state(values):
    """Evaluated (A, W, S) trace values, in iteration order, as the final
    state with every iteration in history."""
    history = tuple(SlotState(slots=values[i + 2], attention=values[i],
                              weights=values[i + 1], iteration=i // 3 + 1)
                    for i in range(0, len(values), 3))
    final = history[-1]
    return SlotState(slots=final.slots, attention=final.attention, weights=final.weights,
                     iteration=final.iteration, history=history)


def slot_attention(tokens, store, config, initial_slots):
    """The encoder's slot attention alone over an N×D token matrix, for
    config.slot_iters iterations from initial_slots: the final SlotState
    with every iteration in its history."""
    g = Graph()
    _, traces = build_slot_attention(g, Binding(g, store),
                                     g.constant(tokens, name="tokens"),
                                     g.constant(initial_slots, name="slots0"), config)
    return slot_state(g.evaluate([node for trace in traces for node in trace]))


def image_pathway(image, store, config, initial_slots):
    """The encoder's whole image pathway over one image, built afresh with
    parameters as constants and run from initial_slots: the embedding row,
    the boxes, and the final SlotState with every iteration in its history."""
    g = Graph()
    nodes = build_image_embedding(g, Binding(g, store), image, config,
                                  initial_slots)
    frame = g.bind({nodes["patches"]: patchify(image, config.patch_size),
                    nodes["slots0"]: initial_slots})
    embedding, boxes, *traces = g.evaluate(
        [nodes["embedding"], nodes["boxes"]]
        + [node for trace in nodes["traces"] for node in trace], frame=frame)
    return embedding.reshape(-1), boxes, slot_state(traces)


def transformer_block(x, store, blk, heads):
    """The encoder's pre-norm transformer block in numpy, each attention head
    sliced out of the qkv columns on its own and the heads' outputs
    concatenated, over an N×D token matrix or a stack of them."""
    def layer_norm(v, prefix):
        centered = v - v.mean(axis=-1, keepdims=True)
        sd = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-8)
        return centered / sd * store[prefix + ".g"] + store[prefix + ".b"]

    def linear(v, prefix):
        return v @ store[prefix + ".w"] + store[prefix + ".b"]

    d = x.shape[-1]
    dh = d // heads
    qkv = linear(layer_norm(x, blk + ".ln1"), blk + ".qkv")
    heads_out = []
    for i in range(heads):
        q, k, v = (qkv[..., part * d + i * dh:part * d + (i + 1) * dh] for part in range(3))
        logits = q @ k.swapaxes(-1, -2) / np.sqrt(dh)
        weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
        heads_out.append(weights / weights.sum(axis=-1, keepdims=True) @ v)
    x = x + linear(np.concatenate(heads_out, axis=-1), blk + ".out")
    m = linear(layer_norm(x, blk + ".ln2"), blk + ".mlp1")
    m = 0.5 * m * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (m + 0.044715 * m ** 3)))
    return x + linear(m, blk + ".mlp2")


def with_values(store, values):
    """A new store: store's tensors, those named in values replaced."""
    return ParamStore({**dict(store.items()), **values}, frozen=store.frozen)
