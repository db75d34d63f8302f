"""Object-centric image encoder and frozen text encoder.

Images, one at a time or as a stack of same-size images, pass through a
small patch transformer; slot attention localizes objects into K slot
vectors which feed a box-regression head; the final embedding aggregates
the pooled image token with a linear readout of the slots.  Text is
hash-tokenized into a tiny frozen transformer.  Everything is expressed on
the autodiff graph so the objectives module can differentiate end to end.
Inference builds the same graphs with the binding training uses:
image_embedding runs the whole image pathway training differentiates for
an embedding and boxes, and encode_text the text tower.  Both keep their
graphs in the store's graphs, built over its views: the text tower once
per token count, and the image pathway once per patch count, so images of
different sizes with the same count share a graph.  Data enters only
through input leaves, so a graph keeps no image of its own, only its
latest call's binding.  Every call binds its data into a new frame, which
it evaluates once.  The text tower reads only frozen tensors, so the
store's text_rows keeps the rows of the texts used last.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .autodiff import Graph, Node, ParamStore, derive_seed

Array = np.ndarray

# Parameters under this prefix are excluded from training updates.
TEXT_PREFIX = "txt."


def check_field_types(config) -> None:
    """TypeError unless each int field of a config dataclass holds an integer
    and each float field, or item of a float tuple, a real number; a bool is
    neither.  ValueError unless each such real number is a finite float."""
    for f in fields(config):
        if f.type not in ("int", "float", "float | tuple[float, ...]"):
            continue
        value = getattr(config, f.name)
        items = value if isinstance(value, tuple) and f.type != "int" else (value,)
        kind, noun = ((numbers.Integral, "an integer") if f.type == "int"
                      else (numbers.Real, "a number"))
        if not all(isinstance(v, kind) and not isinstance(v, bool) for v in items):
            raise TypeError(f"{f.name} must be {noun}, got {value!r}")
        if f.type != "int" and not all(abs(v) <= sys.float_info.max for v in items):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EncoderConfig:
    """Dimensions and slot-attention hyperparameters."""

    patch_size: int = 8
    dim: int = 32
    slot_dim: int = 32
    num_slots: int = 4
    slot_iters: int = 3
    depth: int = 1
    heads: int = 2
    mlp_ratio: int = 2
    max_tokens: int = 64
    text_vocab: int = 128
    text_len: int = 16
    slot_mean: float = 0.0
    slot_std: float | tuple[float, ...] = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("patch_size", "num_slots", "slot_iters", "heads", "mlp_ratio",
                     "max_tokens", "text_vocab", "text_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.dim < 2 or self.slot_dim < 2:
            raise ValueError("dim and slot_dim must be >= 2")
        if self.dim % self.heads != 0:
            raise ValueError("heads must divide dim")
        if isinstance(self.slot_std, tuple) and len(self.slot_std) not in (1, self.slot_dim):
            raise ValueError(f"slot_std must be a number or hold 1 or slot_dim = "
                             f"{self.slot_dim} numbers, got {len(self.slot_std)}")
        if np.any(np.asarray(self.slot_std) <= 0.0):
            raise ValueError("slot_std must be elementwise positive")

    @classmethod
    def reference(cls) -> "EncoderConfig":
        """Full-scale configuration; desk tests never instantiate its weights."""
        return cls(patch_size=16, dim=768, slot_dim=768, num_slots=10,
                   slot_iters=20, depth=12, heads=12, max_tokens=196,
                   text_vocab=4096, text_len=32)

    def slot_sigma(self) -> Array:
        return np.broadcast_to(np.asarray(self.slot_std, dtype=np.float64),
                               (self.slot_dim,)).copy()


@dataclass
class Embedding:
    """Unit-norm vector in the shared image/text space."""

    vector: Array


# ----------------------------------------------------------------------
# Parameter initialization


def param_specs(config: EncoderConfig) -> list[tuple[str, tuple[int, ...], bool, str]]:
    """Every parameter tensor config gives, in store order, as (name, shape,
    frozen, init): the text-encoder tensors are frozen, and last; init_params
    draws "normal" ones with standard deviation 1/sqrt(fan-in) and "small"
    ones as 0.02 times a standard normal, and fills "zeros" and "ones"."""
    d, ds, k = config.dim, config.slot_dim, config.num_slots
    specs = []

    def add(name: str, shape: tuple[int, ...], init: str) -> None:
        specs.append((name, shape, name.startswith(TEXT_PREFIX), init))

    def linear(name: str, fan_in: int, fan_out: int) -> None:
        add(name + ".w", (fan_in, fan_out), "normal")
        add(name + ".b", (fan_out,), "zeros")

    def norm(name: str, width: int) -> None:
        add(name + ".g", (width,), "ones")
        add(name + ".b", (width,), "zeros")

    def transformer(prefix: str, depth: int) -> None:
        for i in range(depth):
            blk = f"{prefix}blk{i}"
            norm(blk + ".ln1", d)
            linear(blk + ".qkv", d, 3 * d)
            linear(blk + ".out", d, d)
            norm(blk + ".ln2", d)
            linear(blk + ".mlp1", d, config.mlp_ratio * d)
            linear(blk + ".mlp2", config.mlp_ratio * d, d)
        norm(prefix + "ln_out", d)

    linear("img.patch", config.patch_size * config.patch_size * 3, d)
    add("img.pos", (config.max_tokens, d), "small")
    transformer("img.", config.depth)

    add("slot.k.w", (d, ds), "normal")
    add("slot.q.w", (ds, ds), "normal")
    add("slot.v.w", (d, ds), "normal")
    for gate in ("z", "r", "n"):
        add(f"slot.gru.w{gate}", (ds, ds), "normal")
        add(f"slot.gru.u{gate}", (ds, ds), "normal")
        add(f"slot.gru.b{gate}", (ds,), "zeros")
    norm("slot.norm", ds)
    linear("slot.mlp1", ds, ds)
    linear("slot.mlp2", ds, ds)

    linear("box.l0", ds, ds)
    linear("box.l1", ds, ds)
    linear("box.l2", ds, 4)

    linear("agg.slots", k * ds, d)
    linear("agg.mlp1", 2 * d, config.mlp_ratio * d)
    linear("agg.mlp2", config.mlp_ratio * d, d)

    linear("mc.proj", ds, d)

    add(TEXT_PREFIX + "embed", (config.text_vocab, d), "small")
    add(TEXT_PREFIX + "pos", (config.text_len, d), "small")
    transformer(TEXT_PREFIX, 1)
    linear(TEXT_PREFIX + "proj", d, d)
    return specs


def init_params(config: EncoderConfig, seed: int | None = None) -> ParamStore:
    """Seeded parameter store; text-encoder tensors are registered frozen."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    draw = {"normal": lambda shape: rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape),
            "small": lambda shape: 0.02 * rng.normal(size=shape),
            "zeros": np.zeros, "ones": np.ones}
    specs = param_specs(config)
    return ParamStore({name: draw[init](shape) for name, shape, _, init in specs},
                      frozen=[name for name, _, frozen, _ in specs if frozen])


class Binding:
    """Binds store tensors into a graph, memoized by name.

    Trainable tensors become graph parameters and frozen ones constants, so
    frozen branches never enter the gradient.  Inference binds the same way
    and never differentiates.
    """

    def __init__(self, graph: Graph, store: ParamStore) -> None:
        self.graph = graph
        self.store = store
        self._nodes: dict[str, Node] = {}

    def __call__(self, name: str) -> Node:
        node = self._nodes.get(name)
        if node is None:
            value = self.store[name]
            if name not in self.store.frozen:
                node = self.graph.parameter(name, value)
            else:
                node = self.graph.constant(value, name=name)
            self._nodes[name] = node
        return node


# ----------------------------------------------------------------------
# Graph builders


def _grid(shape: tuple[int, ...], patch_size: int) -> tuple[tuple[int, ...], int, int]:
    """Leading axes and patch rows and columns of an H×W×3 image, or a stack
    of them, of this shape; ValueError unless its sides are multiples of
    patch_size."""
    if len(shape) < 3 or shape[-1] != 3:
        raise ValueError(f"expected an H×W×3 image, got shape {shape}")
    *lead, h, w, _ = shape
    if h % patch_size or w % patch_size:
        raise ValueError(f"image {h}×{w} not divisible by patch size {patch_size}")
    return tuple(lead), h // patch_size, w // patch_size


def patch_shape(shape: Sequence[int], config: EncoderConfig) -> tuple[int, ...]:
    """Shape of patchify's output for an image, or a stack, of this shape;
    ValueError unless its patch count also fits max_tokens."""
    lead, gh, gw = _grid(tuple(shape), config.patch_size)
    if gh * gw > config.max_tokens:
        raise ValueError(f"{gh * gw} patches exceed max_tokens={config.max_tokens}")
    return (*lead, gh * gw, config.patch_size * config.patch_size * 3)


def patchify(image: Array, patch_size: int) -> Array:
    """Split an H×W×3 image, or a stack of them, into flattened row-major patches."""
    image = np.asarray(image, dtype=np.float64)
    lead, gh, gw = _grid(image.shape, patch_size)
    tiles = image.reshape(*lead, gh, patch_size, gw, patch_size, 3)
    r = len(lead)
    tiles = tiles.transpose(*range(r), r, r + 2, r + 1, r + 3, r + 4)
    return tiles.reshape(*lead, gh * gw, patch_size * patch_size * 3)


def _layer_norm(g: Graph, bind: Binding, x: Node, prefix: str) -> Node:
    return g.layer_norm(x, bind(prefix + ".g"), bind(prefix + ".b"))


def _linear(g: Graph, bind: Binding, x: Node, prefix: str) -> Node:
    return g.linear(x, bind(prefix + ".w"), bind(prefix + ".b"))


def _transformer_block(g: Graph, bind: Binding, x: Node, blk: str, heads: int) -> Node:
    *lead, n, d = x.shape
    r = len(lead)
    dh = d // heads
    h = _layer_norm(g, bind, x, blk + ".ln1")
    # qkv's columns are q, k and v, each head by head: (..., N, 3, heads, dh)
    # becomes (..., 3, heads, N, dh), and attention runs every head at once.
    qkv = g.reshape(_linear(g, bind, h, blk + ".qkv"), (*lead, n, 3, heads, dh))
    qkv = g.transpose(qkv, (*range(r), r + 1, r + 2, r, r + 3))
    q, key, v = (g.slice(qkv, i, i + 1, axis=-4) for i in range(3))
    attn = g.softmax(g.affine(g.matmul(q, g.transpose(key)), 1.0 / np.sqrt(dh), 0.0), axis=-1)
    # (..., 1, heads, N, dh) back to (..., N, d), the heads side by side.
    merged = g.transpose(g.matmul(attn, v), (*range(r), r + 2, r, r + 1, r + 3))
    x = g.add(x, _linear(g, bind, g.reshape(merged, x.shape), blk + ".out"))
    m = _layer_norm(g, bind, x, blk + ".ln2")
    m = g.gelu(_linear(g, bind, m, blk + ".mlp1"))
    return g.add(x, _linear(g, bind, m, blk + ".mlp2"))


def _normalize_rows(g: Graph, x: Node) -> Node:
    """x divided by its Euclidean norm along the last axis."""
    norms = g.sqrt(g.sum(g.multiply(x, x), axis=-1))
    return g.divide(x, g.reshape(norms, x.shape[:-1] + (1,)))


def _images(node: Node) -> int:
    """Images a per-image matrix node covers: 1 for one, B for a stack."""
    return math.prod(node.shape[:-2])


def _patch_tokens(g: Graph, bind: Binding, patches: Node,
                  config: EncoderConfig) -> tuple[Node, Node]:
    """Patch transformer over patchify's rows for one image or a stack;
    returns tokens (N×D or B×N×D) and pooled (1×D or B×D)."""
    x = _linear(g, bind, patches, "img.patch")
    x = g.add(x, g.slice(bind("img.pos"), 0, patches.shape[-2], axis=-2))
    for i in range(config.depth):
        x = _transformer_block(g, bind, x, f"img.blk{i}", config.heads)
    tokens = _layer_norm(g, bind, x, "img.ln_out")
    pooled = g.reshape(g.mean(tokens, axis=-2), (_images(tokens), config.dim))
    return tokens, pooled


def build_slot_attention(g: Graph, bind: Binding, tokens: Node, slots: Node,
                         config: EncoderConfig) -> tuple[Node, list[tuple[Node, Node, Node]]]:
    """config.slot_iters iterations of slot attention from the initial slots
    node; returns final slots and per-iteration (A, W, S).

    tokens N×D take initial slots K×ds; a B×N×D stack takes B×K×ds.
    """
    ds, k = config.slot_dim, config.num_slots
    keys = g.matmul(tokens, bind("slot.k.w"))
    values = g.matmul(tokens, bind("slot.v.w"))
    expected = tokens.shape[:-2] + (k, ds)
    if slots.shape != expected:
        raise ValueError(f"initial slots must be {expected}, got {slots.shape}")
    column = tokens.shape[:-2] + (1, k)
    traces: list[tuple[Node, Node, Node]] = []
    for _ in range(config.slot_iters):
        queries = g.matmul(slots, bind("slot.q.w"))
        logits = g.affine(g.matmul(keys, g.transpose(queries)), 1.0 / np.sqrt(ds), 0.0)
        attention = g.softmax(logits, axis=-1)
        weights = g.divide(attention, g.reshape(g.sum(attention, axis=-2), column))
        updates = g.matmul(g.transpose(weights), values)

        z = g.sigmoid(g.add(g.add(g.matmul(updates, bind("slot.gru.wz")),
                                  g.matmul(slots, bind("slot.gru.uz"))), bind("slot.gru.bz")))
        r = g.sigmoid(g.add(g.add(g.matmul(updates, bind("slot.gru.wr")),
                                  g.matmul(slots, bind("slot.gru.ur"))), bind("slot.gru.br")))
        n = g.tanh(g.add(g.add(g.matmul(updates, bind("slot.gru.wn")),
                               g.multiply(r, g.matmul(slots, bind("slot.gru.un")))),
                         bind("slot.gru.bn")))
        gru = g.add(g.multiply(z, slots), g.multiply(g.affine(z, -1.0, 1.0), n))

        m = _layer_norm(g, bind, gru, "slot.norm")
        m = g.gelu(_linear(g, bind, m, "slot.mlp1"))
        slots = g.add(slots, _linear(g, bind, m, "slot.mlp2"))
        traces.append((attention, weights, slots))
    return slots, traces


def build_box_head(g: Graph, bind: Binding, slots: Node) -> Node:
    """Per-slot 3-layer MLP to sigmoid center-size, converted to clipped corners."""
    h = g.gelu(_linear(g, bind, slots, "box.l0"))
    h = g.gelu(_linear(g, bind, h, "box.l1"))
    raw = g.sigmoid(_linear(g, bind, h, "box.l2"))
    # (cx, cy, w, h) to (cx - w/2, cy - h/2, cx + w/2, cy + h/2): each corner
    # adds two terms, one of them halved exactly, as cx - 0.5 * w would.
    corners = g.matmul(raw, g.constant([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                                        [-0.5, 0.0, 0.5, 0.0], [0.0, -0.5, 0.0, 0.5]],
                                       name="box.corners"))
    return g.maximum(g.minimum(corners, g.constant(1.0, name="box.one")),
                     g.constant(0.0, name="box.zero"))


def build_aggregate(g: Graph, bind: Binding, pooled: Node, slots: Node,
                    config: EncoderConfig) -> Node:
    """Eq-style aggregation: concat(pooled, linear(flat slots)) -> MLP -> unit
    norm; one row per image."""
    flat = g.reshape(slots, (_images(slots), config.num_slots * config.slot_dim))
    slot_vec = _linear(g, bind, flat, "agg.slots")
    cat = g.concat([pooled, slot_vec], axis=-1)
    h = g.gelu(_linear(g, bind, cat, "agg.mlp1"))
    return _normalize_rows(g, _linear(g, bind, h, "agg.mlp2"))


def build_image_embedding(g: Graph, bind: Binding, image: Array,
                          config: EncoderConfig, initial_slots: Array) -> dict[str, object]:
    """Full image pathway over one image or a stack of same-size images;
    returns the named nodes downstream consumers need, among them the input
    leaves "patches" and "slots0", which every evaluation binds.  Only the
    shapes of image and initial_slots are read, so the graph is built from
    no image's data and serves every image with the same patch count."""
    patches = g.input(patch_shape(np.shape(image), config), name="patches")
    slots0 = g.input(np.shape(initial_slots), name="slots0")
    tokens, pooled = _patch_tokens(g, bind, patches, config)
    slots, traces = build_slot_attention(g, bind, tokens, slots0, config)
    boxes = build_box_head(g, bind, slots)
    embedding = build_aggregate(g, bind, pooled, slots, config)
    return {"patches": patches, "slots0": slots0, "tokens": tokens, "pooled": pooled,
            "slots": slots, "traces": traces, "boxes": boxes, "embedding": embedding}


# ----------------------------------------------------------------------
# Text pathway


def tokenize(text: str, config: EncoderConfig) -> list[int]:
    """Deterministic hash tokenization into the fixed vocabulary."""
    words = text.lower().split()
    if not words:
        raise ValueError("cannot encode an empty query")
    ids = []
    for word in words[:config.text_len]:
        digest = hashlib.sha256(word.encode("utf-8")).digest()
        ids.append(int.from_bytes(digest[:4], "little") % config.text_vocab)
    return ids


def build_text_embedding(g: Graph, bind: Binding, rows: Node,
                         config: EncoderConfig) -> Node:
    """Text tower over rows, the frozen embedding table's rows of a query's
    token ids, one per token."""
    x = g.add(rows, g.slice(bind(TEXT_PREFIX + "pos"), 0, rows.shape[0], axis=-2))
    x = _transformer_block(g, bind, x, TEXT_PREFIX + "blk0", config.heads)
    x = _layer_norm(g, bind, x, TEXT_PREFIX + "ln_out")
    pooled = g.reshape(g.mean(x, axis=0), (1, config.dim))
    return _normalize_rows(g, _linear(g, bind, pooled, TEXT_PREFIX + "proj"))


# ----------------------------------------------------------------------
# Inference: the training builders and binding, built once per store and
# shape


def sample_slots(config: EncoderConfig, seed: int | np.random.Generator,
                 lead: tuple[int, ...] = ()) -> Array:
    """Draw initial slots from N(mean, diag sigma^2): one K×ds set, or one
    per index of the leading shape lead, in one draw from a generator or
    from a new one seeded with seed."""
    rng = np.random.default_rng(seed)
    sigma = config.slot_sigma()
    return config.slot_mean + sigma * rng.standard_normal(
        (*lead, config.num_slots, config.slot_dim))


def _seeded_slots(config: EncoderConfig, seed: int | None) -> Array:
    return sample_slots(config, derive_seed(config.seed if seed is None else seed, "slots"))


def _runner(g: Graph, leaves: Sequence[Node], outputs: list[Node]):
    """Run of a built inference graph: outputs evaluated with the call's
    data bound to leaves."""
    def run(*data: Array) -> list[Array]:
        return g.evaluate(outputs, frame=g.bind(dict(zip(leaves, data))))
    return run


def encode_text(query: str, store: ParamStore, config: EncoderConfig) -> Embedding:
    """The text tower's unit row for query, read-only, computed once per
    store and config while the store keeps it among its recent texts."""
    def compute() -> Array:
        ids = tokenize(query, config)

        def build():
            g = Graph()
            bind = Binding(g, store)
            rows = g.input((len(ids), config.dim), name=TEXT_PREFIX + "tokens")
            return _runner(g, [rows], [build_text_embedding(g, bind, rows, config)])

        vec, = store.graphs.get(("text", config, len(ids)), build)(
            store[TEXT_PREFIX + "embed"][ids])
        row = vec.reshape(-1)
        row.flags.writeable = False
        return row

    return Embedding(vector=store.text_rows.get((config, query), compute))


def image_embedding(image: Array, store: ParamStore, config: EncoderConfig,
                    seed: int | None = None) -> tuple[Embedding, Array]:
    """End-to-end inference for one image through the graph training
    differentiates, evaluated once: its embedding, and its K normalized
    corner boxes (x1, y1, x2, y2), each with x1<=x2 and y1<=y2."""
    shape = patch_shape(np.shape(image), config)
    slots0 = _seeded_slots(config, seed)

    def build():
        g = Graph()
        bind = Binding(g, store)
        nodes = build_image_embedding(g, bind, image, config, slots0)
        return _runner(g, [nodes["patches"], nodes["slots0"]],
                       [nodes["embedding"], nodes["boxes"]])

    run = store.graphs.get(("image", config, shape), build)
    embedding, boxes = run(patchify(image, config.patch_size), slots0)
    return Embedding(vector=embedding.reshape(-1)), boxes


# ----------------------------------------------------------------------
# PPM image files (P6, maxval 255)


def read_ppm(path) -> Array:
    """Read a binary P6 image with maxval 255; a malformed file raises
    ValueError naming the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields: list[bytes] = []
    offset = 0
    while len(fields) < 4:
        while offset < len(data) and data[offset:offset + 1].isspace():
            offset += 1
        if data[offset:offset + 1] == b"#":
            while offset < len(data) and data[offset] != 0x0A:
                offset += 1
            continue
        start = offset
        while offset < len(data) and not data[offset:offset + 1].isspace():
            offset += 1
        fields.append(data[start:offset])
    try:
        if fields[0] != b"P6" or fields[3] != b"255":
            raise ValueError("expected binary P6 with maxval 255")
        width, height = int(fields[1]), int(fields[2])
        if width < 1 or height < 1:
            raise ValueError(f"bad image size {width}×{height}")
        pixels = np.frombuffer(data, dtype=np.uint8, count=width * height * 3,
                               offset=offset + 1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return pixels.reshape(height, width, 3).astype(np.float64) / 255.0


def write_ppm(path, image: Array) -> None:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected an H×W×3 image, got shape {image.shape}")
    raw = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
        fh.write(raw.tobytes())
