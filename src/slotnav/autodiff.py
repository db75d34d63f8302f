"""Reverse-mode differentiation over a static expression graph.

Graphs are built once (define-then-run), then evaluated or differentiated
against named parameter leaves.  All values are dense float64 numpy arrays.
Shapes are inferred and validated at construction time, so shape bugs surface
when a node is created, not when the graph runs.

Every op acts on the trailing axes of its operands, and leading axes
broadcast, in shape inference and backward alike: matmul multiplies the last
two axes, transpose permutes the operand's own (by default the last two),
the axis of sum, softmax, concat or slice is counted from the end of the
operand's own shape, and a second operand may broadcast over leading axes
and from size-1 axes.  So one graph serves a stack of B images as well as one.

Two ops fuse the commonest pairs of a training step into one node each,
with the bits of the ops they replace: linear(x, w, b) is x @ w + b, and
layer_norm(x, gain, bias) scales the normalized rows by gain and adds bias.
gelu keeps its tanh as a node of its own, which its backward reads.

Every forward closure also accepts values that carry extra leading axes in
front of a node's own shape, and broadcasts them through; without them it
gives exactly the result it always did.  finite_difference_check uses this to
stack the +step and -step probes of a block of coordinates along one leading
probe axis, so the part of the graph a parameter reaches runs once per block
rather than twice per coordinate.  Its rare wider-step retries run through
the same path with a block of one coordinate.  The sweep probes its
parameters on one thread per CPU the process may use, the calling thread
among them; each helper thread costs about 2 MB of RSS, and the report
equals a one-thread sweep's bit for bit.

Input values are bound per call, so a graph built once serves every call
of its shapes.  Parameters and constants are built with a value, which
every call reads; an input is built without one.  Graph.bind gives values
to inputs only, each checked for its leaf's shape and for finite entries,
and returns a Frame holding them beside the build-time values; it becomes
the graph's current binding, which evaluate, gradient and
finite_difference_check read when given no frame.
evaluate and gradient keep node values in the frame: given one, they run
only the nodes without a value yet.  Inputs a frame has not bound can be
bound into it before a node reads them, so a caller that evaluates part of
a graph, binds inputs computed from those values and then differentiates
computes every node once.  A frame never mixes bindings:
each of its leaves is bound once, and it serves only the graph it was made
from, as it was then.

A run names the first node, in ascending order, whose value has a
non-finite entry.  It tests only the nodes no other node of the run reads
and the operands an op can hide (_HIDING_OPS), since every other op
carries a non-finite entry into its output; only after a test fails does
it scan the run's nodes for the first bad one.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

Array = np.ndarray

# Ops whose gradient is discontinuous.  finite_difference_check skips
# coordinates whose probe steps straddle one of these kinks.
_KINK_OPS = ("minimum", "maximum", "absolute")

# Operand positions at which an op can map a non-finite entry to a finite
# output: the minimum or maximum of inf and a finite value, a dropped
# entry, a saturated tanh (gelu's own among them) or sigmoid, the zero
# weight of a -inf logit, division by inf, and layer_norm's standard
# deviation, a denominator.  Every other op carries a non-finite operand
# entry into its output, since inf * 0 and inf - inf are nan.  _run checks
# the operands at these places.
_HIDING_OPS = {"minimum": (0, 1), "maximum": (0, 1), "slice": (0,), "tanh": (0,),
               "gelu_tanh": (0,), "sigmoid": (0,), "softmax": (0,), "divide": (1,),
               "layer_norm": (1,)}

_LN_EPS = 1e-8

# Coordinates perturbed together by finite_difference_check; each block
# carries 2 * _PROBE_BLOCK probes along one leading axis.
_PROBE_BLOCK = 64


class ShapeError(ValueError):
    """Raised when operands of a graph op have incompatible shapes."""


class EvaluationError(ArithmeticError):
    """Raised when a node produces a non-finite value during evaluation."""


def _finite(a: Array) -> bool:
    """Whether every entry of a is finite: one sum, and an entrywise test
    only where the sum is not finite, as when finite entries overflow it.
    Callers silence the floating-point warnings such a sum raises."""
    return math.isfinite(np.add.reduce(a, axis=None)) or bool(np.isfinite(a).all())


def _as_array(value) -> Array:
    """value as a read-only float64 array of finite entries, copied if it is
    or views a writeable array, so that no later write reaches what was checked."""
    arr = np.asarray(value, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = _finite(arr)
    if not finite:
        raise ValueError("array contains non-finite entries")
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if isinstance(base, np.ndarray):
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def _reduce_to(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over the leading axes broadcast added and over the axes
    it stretched from size 1."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    return grad.sum(axis=stretched, keepdims=True) if stretched else grad


def _align(y: Array, rank: int, target: int) -> Array:
    """Insert unit axes between y's leading probe axes and its own rank-`rank`
    shape so it broadcasts against a rank-`target` operand as it would unbatched.
    """
    lead = y.ndim - rank
    if lead == 0 or rank == target:
        return y
    return y.reshape(y.shape[:lead] + (1,) * (target - rank) + y.shape[lead:])


def _broadcast_shape(op: str, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # The second operand broadcasts onto the first: over leading axes it
    # lacks, and from size-1 axes; the first operand is never stretched.
    # The first test is the common case, and a cheap one.
    if b == a[len(a) - len(b):] or (
            len(b) <= len(a) and all(m in (1, n) for m, n in zip(b, a[len(a) - len(b):]))):
        return a
    raise ShapeError(f"{op}: cannot broadcast {b} onto {a}")


@dataclass(frozen=True)
class Node:
    """Handle to one graph operation; cheap to copy, compares by identity."""

    graph: "Graph" = field(repr=False)
    index: int
    shape: tuple[int, ...]
    name: str

    def __hash__(self) -> int:
        return hash((id(self.graph), self.index))

    def __eq__(self, other) -> bool:
        return isinstance(other, Node) and other.graph is self.graph and other.index == self.index


@dataclass
class Frame:
    """Node values under one binding of a graph's leaves.

    values[i] is node i's array, or None where it has not run or, for an
    input, is not bound yet; bound maps input index to each value the
    binding gave, and is the graph's current binding while the frame is its
    latest, so inputs bound into the frame later join that binding too.
    """

    values: list
    bound: dict[int, Array]


@dataclass
class GradientReport:
    """Gradients for every requested parameter: views of flat, which holds
    them raveled end to end in the order requested."""

    gradients: dict[str, Array]
    flat: Array


@dataclass
class CoordinateError:
    """Worst finite-difference mismatch within one parameter tensor."""

    parameter: str
    coordinate: tuple[int, ...]
    analytic: float
    numeric: float


@dataclass
class FiniteDifferenceReport:
    """Outcome of a central finite-difference sweep over graph parameters."""

    max_relative_error: float
    per_parameter: dict[str, float]
    worst: CoordinateError | None
    checked_coordinates: int
    skipped_coordinates: int
    passed: bool


class Graph:
    """Static computation graph over parameter, constant and input leaves."""

    def __init__(self) -> None:
        self._ops: list[str] = []
        self._parents: list[tuple[int, ...]] = []
        self._shapes: list[tuple[int, ...]] = []
        self._names: list[str] = []
        self._forward: list[Callable | None] = []
        self._backward: list[Callable | None] = []
        # Whether a node depends on a parameter, and so takes gradients.
        self._needs: list[bool] = []
        # Build-time leaf values, and the current binding's values beyond them.
        self._leaf_values: dict[int, Array] = {}
        self._bound: dict[int, Array] = {}
        self._params: dict[str, int] = {}
        # _ancestors' orders by target tuple, and the nodes _run checks in
        # each; cleared when a node is added.
        self._orders: dict[tuple[int, ...], list[int]] = {}
        self._checks: dict[tuple[int, ...], frozenset[int]] = {}

    # ------------------------------------------------------------------
    # Node construction

    def _register(self, op: str, parents: tuple[Node, ...], shape: tuple[int, ...],
                  forward: Callable | None, backward: Callable | None,
                  name: str | None = None) -> Node:
        for p in parents:
            if p.graph is not self:
                raise ValueError(f"{op}: operand {p.name} belongs to a different graph")
        index = len(self._ops)
        label = name if name is not None else f"{op}#{index}"
        if self._orders:
            self._orders.clear()
            self._checks.clear()
        self._ops.append(op)
        self._parents.append(tuple(p.index for p in parents))
        self._shapes.append(shape)
        self._names.append(label)
        self._forward.append(forward)
        self._backward.append(backward)
        self._needs.append(op == "parameter" or any(self._needs[p.index] for p in parents))
        return Node(self, index, shape, label)

    def parameter(self, name: str, value) -> Node:
        """Trainable leaf; gradient() reports a gradient for it."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        arr = _as_array(value)
        node = self._register("parameter", (), arr.shape, None, None, name=name)
        self._leaf_values[node.index] = arr
        self._params[name] = node.index
        return node

    def constant(self, value, name: str | None = None) -> Node:
        """Leaf whose build-time value every call reads; never differentiated."""
        arr = _as_array(value)
        node = self._register("constant", (), arr.shape, None, None, name=name)
        self._leaf_values[node.index] = arr
        return node

    def input(self, shape: Sequence[int], name: str) -> Node:
        """Leaf with no build-time value; each frame binds it before a node
        reading it runs.  Never differentiated."""
        return self._register("input", (), tuple(int(n) for n in shape), None, None, name=name)

    def bind(self, values: Mapping[Node, object] | None = None,
             frame: Frame | None = None) -> Frame:
        """Bind input values for one call; returns the frame that holds them.

        Without frame, a new binding: the build-time values of the parameters
        and constants and the input values given, in a new frame, which
        becomes the graph's current binding.  With frame, values bind inputs
        that frame has not bound yet, in place.  Each value must be for an
        input of this graph, with its shape and finite entries; a value that
        is not raises an error naming the leaf.
        """
        checked = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for node, value in (values or {}).items():
                i = node.index
                if node.graph is not self or self._ops[i] != "input":
                    raise ValueError(f"bind: {node.name} is not an input of this graph")
                arr = np.asarray(value, dtype=np.float64)
                if arr.shape != node.shape:
                    raise ShapeError(f"bind: leaf {node.name} has shape {node.shape}, "
                                     f"got {arr.shape}")
                if not _finite(arr):
                    raise ValueError(f"bind: leaf {node.name} got non-finite entries")
                checked[i] = arr
        if frame is None:
            self._bound = checked
            return self._frame(checked)
        self._frame_for(frame)
        for i, arr in checked.items():
            if frame.values[i] is not None:
                raise ValueError(f"bind: leaf {self._names[i]} is already bound in this frame")
            frame.values[i] = arr
        frame.bound.update(checked)
        return frame

    def _frame(self, bound: dict[int, Array]) -> Frame:
        """A new frame holding the build-time leaf values overridden by bound."""
        values: list = [None] * len(self._ops)
        for i, arr in self._leaf_values.items():
            values[i] = arr
        for i, arr in bound.items():
            values[i] = arr
        return Frame(values, bound)

    # ------------------------------------------------------------------
    # Elementwise and linear-algebra ops

    def matmul(self, a: Node, b: Node) -> Node:
        """(..., n, d) @ (d, e), or two stacks with the same leading axes."""
        if len(a.shape) < 2 or len(b.shape) < 2:
            raise ShapeError(f"matmul: operands need two axes, got {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
        if len(b.shape) > 2 and a.shape[:-2] != b.shape[:-2]:
            raise ShapeError(f"matmul: leading axes differ, {a.shape} vs {b.shape}")
        ia, ib = a.index, b.index
        a_rank, b_rank = len(a.shape), len(b.shape)
        need_a, need_b = self._needs[ia], self._needs[ib]

        def forward(v):
            return v[ia] @ _align(v[ib], b_rank, a_rank)

        def backward(v, g):
            x, w = v[ia], v[ib]
            if b_rank > 2:
                return ((ia, g @ w.swapaxes(-1, -2) if need_a else None),
                        (ib, x.swapaxes(-1, -2) @ g if need_b else None))
            # A weight a stack shares: one product over all its rows per gradient.
            rows = g.reshape(-1, g.shape[-1])
            return ((ia, (rows @ w.T).reshape(x.shape) if need_a else None),
                    (ib, x.reshape(-1, x.shape[-1]).T @ rows if need_b else None))

        return self._register("matmul", (a, b), a.shape[:-1] + b.shape[-1:], forward, backward)

    def linear(self, x: Node, w: Node, b: Node) -> Node:
        """x @ w + b as one node: (..., n, d) @ (d, e) plus a bias of shape
        (e,), with the bits of matmul followed by add."""
        if len(x.shape) < 2 or len(w.shape) != 2 or x.shape[-1] != w.shape[0] \
                or b.shape != w.shape[1:]:
            raise ShapeError(f"linear: cannot apply weight {w.shape} and bias {b.shape} "
                             f"to {x.shape}")
        ix, iw, ib = x.index, w.index, b.index
        rank = len(x.shape)
        need_x, need_w, need_b = self._needs[ix], self._needs[iw], self._needs[ib]

        def forward(v):
            return v[ix] @ _align(v[iw], 2, rank) + _align(v[ib], 1, rank)

        def backward(v, g):
            # One product over all rows per gradient; the bias sums every
            # leading axis at once, as add's _reduce_to does.
            xv = v[ix]
            rows = g.reshape(-1, g.shape[-1])
            return ((ix, (rows @ v[iw].T).reshape(xv.shape) if need_x else None),
                    (iw, xv.reshape(-1, xv.shape[-1]).T @ rows if need_w else None),
                    (ib, g.sum(axis=tuple(range(g.ndim - 1))) if need_b else None))

        return self._register("linear", (x, w, b), x.shape[:-1] + w.shape[1:], forward,
                              backward)

    def transpose(self, a: Node, axes: Sequence[int] | None = None) -> Node:
        """Permute a's own axes as np.transpose does, by default swapping the
        last two; a value's extra leading axes stay in front."""
        ia, rank = a.index, len(a.shape)
        if axes is None and rank < 2:
            raise ShapeError(f"transpose: operand needs two axes, got {a.shape}")
        perm = (*range(rank - 2), rank - 1, rank - 2) if axes is None else \
            tuple(p % rank if -rank <= p < rank else rank for p in axes)
        if sorted(perm) != list(range(rank)):
            raise ShapeError(f"transpose: {axes} is not a permutation of the axes of {a.shape}")
        inverse = tuple(np.argsort(perm).tolist())

        def forward(v):
            lead = v[ia].ndim - rank
            return v[ia].transpose((*range(lead), *(lead + p for p in perm)))

        return self._register("transpose", (a,), tuple(a.shape[p] for p in perm), forward,
                              lambda v, g: ((ia, g.transpose(inverse)),))

    def _binary(self, op: str, a: Node, b: Node, fwd, dfa, dfb) -> Node:
        shape = _broadcast_shape(op, a.shape, b.shape)
        ia, ib = a.index, b.index
        b_shape = b.shape
        a_rank, b_rank = len(a.shape), len(b_shape)
        need_a, need_b = self._needs[ia], self._needs[ib]

        def forward(v):
            return fwd(v[ia], _align(v[ib], b_rank, a_rank))

        def backward(v, g):
            x, y = v[ia], v[ib]
            return ((ia, dfa(x, y, g) if need_a else None),
                    (ib, _reduce_to(dfb(x, y, g), b_shape) if need_b else None))

        return self._register(op, (a, b), shape, forward, backward)

    def add(self, a: Node, b: Node) -> Node:
        return self._binary("add", a, b, np.add,
                            lambda x, y, g: g, lambda x, y, g: g)

    def subtract(self, a: Node, b: Node) -> Node:
        return self._binary("subtract", a, b, np.subtract,
                            lambda x, y, g: g, lambda x, y, g: -g)

    def multiply(self, a: Node, b: Node) -> Node:
        return self._binary("multiply", a, b, np.multiply,
                            lambda x, y, g: g * y, lambda x, y, g: g * x)

    def divide(self, a: Node, b: Node) -> Node:
        return self._binary("divide", a, b, np.divide,
                            lambda x, y, g: g / y, lambda x, y, g: -g * x / (y * y))

    def minimum(self, a: Node, b: Node) -> Node:
        # Ties follow the first operand (subgradient of the first branch).
        return self._binary("minimum", a, b, np.minimum,
                            lambda x, y, g: g * (x <= y), lambda x, y, g: g * (x > y))

    def maximum(self, a: Node, b: Node) -> Node:
        return self._binary("maximum", a, b, np.maximum,
                            lambda x, y, g: g * (x >= y), lambda x, y, g: g * (x < y))

    def affine(self, a: Node, scale: float, shift: float) -> Node:
        ia, scale, shift = a.index, float(scale), float(shift)
        return self._register("affine", (a,), a.shape, lambda v: v[ia] * scale + shift,
                              lambda v, g: ((ia, g * scale),))

    def _unary(self, op: str, a: Node, fwd, grad_from_xy) -> Node:
        ia = a.index
        io = len(self._ops)

        def backward(v, g):
            return ((ia, grad_from_xy(v[ia], v[io], g)),)

        return self._register(op, (a,), a.shape, lambda v: fwd(v[ia]), backward)

    def absolute(self, a: Node) -> Node:
        # Subgradient at 0 is +1: |x| treated as maximum(x, -x) with ties
        # resolved toward the first branch.
        return self._unary("absolute", a, np.abs,
                           lambda x, y, g: g * np.where(x >= 0.0, 1.0, -1.0))

    def sqrt(self, a: Node) -> Node:
        return self._unary("sqrt", a, np.sqrt, lambda x, y, g: g / (2.0 * y))

    def sigmoid(self, a: Node) -> Node:
        """1 / (1 + exp(-x)), computed as (1 + tanh(x / 2)) / 2, which never
        overflows.  For negative x its values are multiples of 2**-54, so it
        saturates to exactly 0 below about -37 (from -38 down), as it does to
        exactly 1 from about 37 up."""
        return self._unary("sigmoid", a, lambda x: 0.5 * (1.0 + np.tanh(0.5 * x)),
                           lambda x, y, g: g * y * (1.0 - y))

    def tanh(self, a: Node) -> Node:
        return self._unary("tanh", a, np.tanh, lambda x, y, g: g * (1.0 - y * y))

    def gelu(self, a: Node) -> Node:
        """tanh approximation; smooth, so finite differences track it
        exactly.  Its tanh is a gelu_tanh node of its own, which forward and
        backward both read."""
        c = np.sqrt(2.0 / np.pi)
        ia = a.index

        def inner_tanh(v):
            # Powers by multiplication: np.power has no fast path for a cube.
            x = v[ia]
            return np.tanh(c * (x + 0.044715 * (x * x * x)))

        t = self._register("gelu_tanh", (a,), a.shape, inner_tanh, None)
        it = t.index

        def backward(v, g):
            x, t = v[ia], v[it]
            d_inner = c * (1.0 + 3 * 0.044715 * (x * x))
            return ((ia, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)),)

        return self._register("gelu", (a, t), a.shape, lambda v: 0.5 * v[ia] * (1.0 + v[it]),
                              backward)

    # ------------------------------------------------------------------
    # Reductions and normalizations

    def sum(self, a: Node, axis: int | None = None) -> Node:
        """Sum over one of a's own axes, or over all of them."""
        ia, in_shape, rank = a.index, a.shape, len(a.shape)
        if axis is not None and not -rank <= axis < rank:
            raise ShapeError(f"sum: axis {axis} out of range for shape {in_shape}")
        axes = tuple(range(rank)) if axis is None else (axis % rank,)
        own_axes = tuple(i - rank for i in axes)
        # The gradient's shape with the summed axes kept, as size 1.
        kept = tuple(1 if i in axes else n for i, n in enumerate(in_shape))

        def backward(v, g):
            out = np.empty(in_shape)
            out[...] = g.reshape(kept)
            return ((ia, out),)

        return self._register(
            "sum", (a,), tuple(n for i, n in enumerate(in_shape) if i not in axes),
            lambda v: np.asarray(v[ia].sum(axis=own_axes)), backward)

    def mean(self, a: Node, axis: int | None = None) -> Node:
        count = math.prod(a.shape) if axis is None else a.shape[axis]
        if count == 0:
            raise ShapeError("mean: cannot average over an empty axis")
        return self.affine(self.sum(a, axis=axis), 1.0 / count, 0.0)

    def softmax(self, a: Node, axis: int) -> Node:
        if not -len(a.shape) <= axis < len(a.shape):
            raise ShapeError(f"softmax: axis {axis} out of range for shape {a.shape}")
        ia = a.index
        io = len(self._ops)
        axis = axis % len(a.shape) - len(a.shape)

        def forward(v):
            x = v[ia]
            z = x - x.max(axis=axis, keepdims=True)
            e = np.exp(z)
            return e / e.sum(axis=axis, keepdims=True)

        def backward(v, g):
            y = v[io]
            dot = (g * y).sum(axis=axis, keepdims=True)
            return ((ia, y * (g - dot)),)

        return self._register("softmax", (a,), a.shape, forward, backward)

    def log_softmax(self, a: Node, axis: int) -> Node:
        if not -len(a.shape) <= axis < len(a.shape):
            raise ShapeError(f"log_softmax: axis {axis} out of range for shape {a.shape}")
        ia = a.index
        io = len(self._ops)
        axis = axis % len(a.shape) - len(a.shape)

        def forward(v):
            x = v[ia]
            z = x - x.max(axis=axis, keepdims=True)
            return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

        def backward(v, g):
            y = np.exp(v[io])
            return ((ia, g - y * g.sum(axis=axis, keepdims=True)),)

        return self._register("log_softmax", (a,), a.shape, forward, backward)

    def layer_norm(self, a: Node, gain: Node | None = None, bias: Node | None = None) -> Node:
        """Normalize the last axis to zero mean, unit variance; given a gain
        and a bias of the last axis's width, then scale by the gain and add
        the bias, with the bits of multiply followed by add.

        Each row's mean and standard deviation are a statistics parent of
        their own, side by side on its last axis, so each is computed once,
        and the frame keeps them.  Backward reads them with the cached
        output, or, given a gain, with the normalized value recomputed from
        them by the forward's own expression.
        """
        if len(a.shape) == 0 or a.shape[-1] < 1:
            raise ShapeError(f"layer_norm: operand needs a non-empty last axis, got {a.shape}")
        ia, width, rank = a.index, a.shape[-1], len(a.shape)
        affine = () if gain is None and bias is None else (gain, bias)
        if affine and not all(p is not None and p.shape == (width,) for p in affine):
            raise ShapeError(f"layer_norm: gain and bias must both have shape ({width},)")

        def mean(x):
            # x.mean's own arithmetic, without its Python-level wrapper.
            return np.add.reduce(x, axis=-1, keepdims=True) / width

        def stats(v):
            x = v[ia]
            mu = mean(x)
            xc = x - mu
            return np.concatenate((mu, np.sqrt(mean(xc * xc) + _LN_EPS)), axis=-1)

        s = self._register("layer_norm_stats", (a,), a.shape[:-1] + (2,), stats, None)
        i_stats, io = s.index, s.index + 1

        def normalized(v):
            st = v[i_stats]
            return (v[ia] - st[..., :1]) / st[..., 1:]

        def grad_a(v, g, y):
            return (g - mean(g) - y * mean(g * y)) / v[i_stats][..., 1:]

        if not affine:
            return self._register("layer_norm", (a, s), a.shape, normalized,
                                  lambda v, g: ((ia, grad_a(v, g, v[io])),))
        ig, ib = gain.index, bias.index
        need_a, need_g, need_b = self._needs[ia], self._needs[ig], self._needs[ib]

        def forward(v):
            return normalized(v) * _align(v[ig], 1, rank) + _align(v[ib], 1, rank)

        def backward(v, g):
            y = normalized(v)
            lead = tuple(range(g.ndim - 1))
            return ((ia, grad_a(v, g * v[ig], y) if need_a else None),
                    (ig, (g * y).sum(axis=lead) if need_g else None),
                    (ib, g.sum(axis=lead) if need_b else None))

        return self._register("layer_norm", (a, s, gain, bias), a.shape, forward, backward)

    # ------------------------------------------------------------------
    # Structural ops

    def reshape(self, a: Node, shape: Sequence[int]) -> Node:
        new_shape = tuple(int(s) for s in shape)
        if math.prod(new_shape) != math.prod(a.shape):
            raise ShapeError(f"reshape: cannot reshape {a.shape} to {new_shape}")
        ia, old_shape = a.index, a.shape

        def forward(v):
            x = v[ia]
            return x.reshape(x.shape[:x.ndim - len(old_shape)] + new_shape)

        return self._register("reshape", (a,), new_shape, forward,
                              lambda v, g: ((ia, g.reshape(old_shape)),))

    def concat(self, nodes: Sequence[Node], axis: int = 0) -> Node:
        if not nodes:
            raise ShapeError("concat: need at least one operand")
        rank = len(nodes[0].shape)
        if not -rank <= axis < rank:
            raise ShapeError(f"concat: axis {axis} out of range for rank {rank}")
        axis = axis % rank
        for n in nodes:
            if len(n.shape) != rank or n.shape[:axis] + n.shape[axis + 1:] \
                    != nodes[0].shape[:axis] + nodes[0].shape[axis + 1:]:
                raise ShapeError(f"concat: mismatched shapes {[n.shape for n in nodes]}")
        sizes = [n.shape[axis] for n in nodes]
        shape = nodes[0].shape[:axis] + (sum(sizes),) + nodes[0].shape[axis + 1:]
        idxs = tuple(n.index for n in nodes)
        bounds = np.cumsum([0] + sizes).tolist()
        neg_axis = axis - rank

        def forward(v):
            parts = [v[i] for i in idxs]
            lead = max((p.shape[:p.ndim - rank] for p in parts), key=len)
            if lead:
                # Operands off the probed path carry no leading axes.
                parts = [np.broadcast_to(p, lead + p.shape[p.ndim - rank:]) for p in parts]
            return np.concatenate(parts, axis=neg_axis)

        def backward(v, g):
            return tuple(zip(idxs, np.split(g, bounds[1:-1], axis=axis)))

        return self._register("concat", tuple(nodes), shape, forward, backward)

    def slice(self, a: Node, start: int, stop: int, axis: int = -1) -> Node:
        """Entries [start, stop) along one of a's own axes; the extra leading
        axes of a value pass through."""
        if not -len(a.shape) <= axis < len(a.shape) or not 0 <= start < stop <= a.shape[axis]:
            raise ShapeError(f"slice: bad range [{start}, {stop}) on axis {axis} "
                             f"of shape {a.shape}")
        axis = axis % len(a.shape) - len(a.shape)
        ia, in_shape = a.index, a.shape
        index = (Ellipsis, slice(start, stop)) + (slice(None),) * (-1 - axis)
        shape = list(in_shape)
        shape[axis] = stop - start

        def backward(v, g):
            out = np.zeros(in_shape)
            out[index] = g
            return ((ia, out),)

        return self._register("slice", (a,), tuple(shape), lambda v: v[ia][index], backward)

    # ------------------------------------------------------------------
    # Execution

    def _ancestors(self, targets: Iterable[int]) -> list[int]:
        """Indices of targets plus everything they depend on, ascending;
        memoized per target tuple, so callers must not change it."""
        key = tuple(targets)
        order = self._orders.get(key)
        if order is None:
            seen: set[int] = set()
            stack = list(key)
            while stack:
                i = stack.pop()
                if i in seen:
                    continue
                seen.add(i)
                stack.extend(self._parents[i])
            order = self._orders[key] = sorted(seen)
            self._checks[key] = self._checked(order)
        return order

    def _checked(self, order: list[int]) -> frozenset[int]:
        """The nodes of order whose values _run tests: those no node of order
        reads, and the operands that a node of order can hide, at a place
        _HIDING_OPS names or because its output has no entries."""
        read: set[int] = set()
        hidden: set[int] = set()
        for i in order:
            parents = self._parents[i]
            read.update(parents)
            if math.prod(self._shapes[i]) == 0:
                hidden.update(parents)
            else:
                hidden.update(parents[k] for k in _HIDING_OPS.get(self._ops[i], ()))
        return frozenset(hidden.union(i for i in order if i not in read))

    def _run(self, targets: tuple[int, ...], frame: Frame) -> list[int]:
        """Run the nodes that targets depend on and that have no value in
        frame yet; returns their ancestor order.

        Only the nodes _checked picks are tested for finite entries as they
        run.  A non-finite entry of any other node reaches one of them, so
        a run that passes leaves every node it computed finite.  When a test
        fails, the nodes this call computed are scanned in ascending order
        and the first non-finite one is named, the node a test after every
        node would name; the values computed after it are dropped from
        frame.  An input the frame has not bound raises ValueError naming
        it, unless a node computed before it is non-finite.
        """
        order = self._ancestors(targets)
        checks = self._checks[targets]
        forward = self._forward
        values = frame.values
        pending = [i for i in order if values[i] is None]
        with np.errstate(all="ignore"):
            for n, i in enumerate(pending):
                try:
                    out = values[i] = forward[i](values)
                except TypeError:
                    if forward[i] is None:
                        self._name_first_non_finite(pending[:n], values)
                        raise ValueError(f"input {self._names[i]} is not bound") from None
                    raise
                if i in checks and not _finite(out):
                    self._name_first_non_finite(pending[:n + 1], values)
        return order

    def _name_first_non_finite(self, ran: list[int], values: list) -> None:
        """Raise EvaluationError naming the first node of ran with a
        non-finite value, after dropping the values of the nodes after it;
        return if every value is finite."""
        for n, i in enumerate(ran):
            if not _finite(values[i]):
                for j in ran[n + 1:]:
                    values[j] = None
                raise EvaluationError(f"non-finite value in node {self._names[i]}")

    def _frame_for(self, frame: Frame | None) -> Frame:
        """frame, or a new one over the current binding."""
        if frame is None:
            return self._frame(self._bound)
        if len(frame.values) != len(self._ops):
            raise ValueError("frame belongs to another graph, or to this one before "
                             "nodes were added")
        return frame

    def evaluate(self, outputs: Node | Sequence[Node], frame: Frame | None = None):
        """Evaluate one node (returns its array) or several (returns a list).

        A non-finite node raises EvaluationError naming it.  Given a frame,
        only nodes without a value in it run; without one, a new frame over
        the current binding.
        """
        single = isinstance(outputs, Node)
        nodes = [outputs] if single else list(outputs)
        for n in nodes:
            if n.graph is not self:
                raise ValueError("output node belongs to a different graph")
        frame = self._frame_for(frame)
        self._run(tuple(n.index for n in nodes), frame)
        results = [frame.values[n.index] for n in nodes]
        return results[0] if single else results

    def gradient(self, output: Node, parameters: Sequence[str] | None = None,
                 frame: Frame | None = None) -> GradientReport:
        """Differentiate a scalar output with respect to named parameters.

        frame is used as in evaluate; every node the output depends on is
        known finite before the backward pass starts.
        """
        if output.graph is not self:
            raise ValueError("output node belongs to a different graph")
        if output.shape != ():
            raise ShapeError(f"gradient: output must be scalar, got shape {output.shape}")
        names = list(parameters) if parameters is not None else list(self._params)
        for name in names:
            if name not in self._params:
                raise ValueError(f"unknown parameter: {name}")

        frame = self._frame_for(frame)
        values = frame.values
        order = self._run((output.index,), frame)

        # Every parent of a node of order is in order, so each contribution
        # lands on a node still to be visited.  A node no parameter reaches
        # gets none: no op's contribution to it is kept, and matmul, linear,
        # the affine layer_norm and the binary ops do not compute one.  An
        # overflow is left for the caller to find in the gradients.
        adjoint: list = [None] * len(self._ops)
        adjoint[output.index] = np.asarray(1.0)
        backward, needs = self._backward, self._needs
        with np.errstate(all="ignore"):
            for i in reversed(order):
                g = adjoint[i]
                if g is None or backward[i] is None:
                    continue
                for parent, contribution in backward[i](values, g):
                    if not needs[parent]:
                        continue
                    if adjoint[parent] is None:
                        adjoint[parent] = contribution if isinstance(contribution, np.ndarray) \
                            else np.asarray(contribution)
                    else:
                        adjoint[parent] = adjoint[parent] + contribution

        leaves = [self._params[name] for name in names]
        bounds = np.cumsum([0] + [math.prod(self._shapes[i]) for i in leaves]).tolist()
        flat = np.zeros(bounds[-1])
        grads = {name: flat[lo:hi].reshape(self._shapes[i])
                 for name, i, lo, hi in zip(names, leaves, bounds, bounds[1:])}
        for name, i in zip(names, leaves):
            if adjoint[i] is not None:
                grads[name][...] = adjoint[i]
        return GradientReport(gradients=grads, flat=flat)

    # ------------------------------------------------------------------
    # Finite differences

    def _descendants_of(self, leaf: int, active: set[int]) -> list[int]:
        """Nodes in active reachable from leaf, ascending order."""
        reach = {leaf}
        out = []
        for i in sorted(active):
            if i == leaf:
                out.append(i)
                continue
            if any(p in reach for p in self._parents[i]):
                reach.add(i)
                out.append(i)
        return out

    def _probe_plan(self, sub_order: list[int], keep: set[int]) -> list:
        """(node, forward, nodes to drop after it) for each computed node of
        sub_order.  A probed value is dropped after its last reader unless it
        is in keep, so a block holds the few values still to be read, not a
        stacked copy of every node it computes, and their memory is reused
        while it is still in cache."""
        probed = set(sub_order)
        last = {}
        for i in sub_order:
            for p in self._parents[i]:
                if p in probed:
                    last[p] = i
        dead: dict[int, list[int]] = {}
        for p, i in last.items():
            if p not in keep:
                dead.setdefault(i, []).append(p)
        return [(i, self._forward[i], tuple(dead.get(i, ()))) for i in sub_order
                if self._forward[i] is not None]

    @staticmethod
    def _relative_error(analytic, numeric):
        """Elementwise |a - n| / max(|a|, |n|), or |a - n| where both are tiny."""
        diff = np.abs(analytic - numeric)
        denom = np.maximum(np.abs(analytic), np.abs(numeric))
        return np.where(denom < 1e-8, diff, diff / denom)

    def finite_difference_check(self, output: Node,
                                parameters: Sequence[str] | None = None,
                                step: float = 1e-5,
                                tolerance: float = 1e-4,
                                frame: Frame | None = None) -> FiniteDifferenceReport:
        """Compare analytic gradients against central finite differences, at
        frame's leaf values, by default the current binding's.

        Every coordinate of every checked parameter is perturbed by +-step and
        only the affected part of the graph is re-evaluated.  Coordinates are
        probed in blocks: the +step and -step copies of a block's parameter
        tensor are stacked along one leading probe axis, and the affected part
        of the graph runs once per block.  Coordinates whose perturbation
        flips the branch of a minimum/maximum/absolute node are skipped: the
        analytic value is a one-sided subgradient there and the central
        difference straddles the kink.  A coordinate that misses the
        tolerance at the base step is re-probed at larger steps, one
        coordinate at a time through the same block path, which lowers the
        roundoff floor for tiny-magnitude gradients; a genuinely wrong
        analytic gradient fails at every step size.

        The sweep runs one thread per CPU this process may use, since numpy
        releases the interpreter lock inside the probes' array work.  The
        parameters queue by size, then by estimated cost (size times the
        nodes a probe runs), largest first.  The calling thread takes them
        from the front and one helper per other CPU from the back, so a
        large parameter's probe stack is only ever live beside small ones;
        each helper costs about 2 MB of RSS at the acceptance gate's
        widths.  The per-parameter reports merge in parameter order, so the
        report equals a one-thread sweep's bit for bit, worst coordinate
        included.
        """
        base = self._frame_for(frame)
        report = self.gradient(output, parameters, frame=base)
        active = set(self._ancestors([output.index]))
        out_idx = output.index

        probes, keys = [], []
        for name, gradient in report.gradients.items():
            if self._params[name] not in active:
                # Parameter does not feed the output; the analytic gradient
                # is exactly zero and there is nothing to probe.
                continue
            sub_order = self._descendants_of(self._params[name], active)
            kinks = [(self._parents[i], len(self._shapes[i]))
                     for i in sub_order if self._ops[i] in _KINK_OPS]
            plan = self._probe_plan(sub_order, {out_idx}.union(*(p for p, _ in kinks)))
            probes.append(partial(self._probe_parameter, name, base, gradient, plan, kinks,
                                  out_idx, step, tolerance))
            keys.append((gradient.size, gradient.size * len(plan)))
        order = sorted(range(len(probes)), key=keys.__getitem__, reverse=True)

        max_rel = 0.0
        worst: CoordinateError | None = None
        per_param = dict.fromkeys(report.gradients, 0.0)
        checked = skipped = 0
        for check in _run_on_every_cpu(probes, order):
            per_param.update(check.per_parameter)
            checked += check.checked_coordinates
            skipped += check.skipped_coordinates
            # Strictly greater: the first parameter to reach the largest
            # error names the worst coordinate, as in a serial sweep.
            if check.max_relative_error > max_rel:
                max_rel, worst = check.max_relative_error, check.worst
        return FiniteDifferenceReport(
            max_relative_error=max_rel,
            per_parameter=per_param,
            worst=worst,
            checked_coordinates=checked,
            skipped_coordinates=skipped,
            passed=max_rel < tolerance,
        )

    def _probe_parameter(self, name: str, base: Frame, gradient: Array, plan: list,
                         kinks: list, out_idx: int, step: float,
                         tolerance: float) -> FiniteDifferenceReport:
        """finite_difference_check's sweep over one parameter, at base's
        values, against its analytic gradient.  It writes to nothing shared,
        so other parameters' sweeps can run beside it on other threads."""
        leaf = self._params[name]
        theta = base.values[leaf]
        flat = theta.reshape(-1)
        grad_flat = gradient.reshape(-1)
        frame = list(base.values)

        def central(coords: Array, h: float) -> tuple[Array, Array]:
            """Central differences at width h for a block of coordinates,
            and a mask of those whose probe pair straddles a kink."""
            n = len(coords)
            rows = np.arange(n)
            stack = np.repeat(flat[None, :], 2 * n, axis=0)
            stack[rows, coords] = flat[coords] + h
            stack[rows + n, coords] = flat[coords] - h
            frame[leaf] = stack.reshape((2 * n,) + theta.shape)
            # The frame holds the only reference, so the stack is freed
            # after its last reader in the plan.
            del stack
            for i, fn, dead in plan:
                frame[i] = fn(frame)
                for p in dead:
                    frame[p] = None
            f = frame[out_idx]
            straddle = np.zeros(n, dtype=bool)
            for parents, rank in kinks:
                disc = frame[parents[0]]
                if len(parents) == 2:
                    ib = parents[1]
                    disc = disc - _align(frame[ib], len(self._shapes[ib]), rank)
                disc = disc.reshape(2 * n, -1)
                dp, dm = disc[:n], disc[n:]
                # Only entries a coordinate actually moved can straddle.
                straddle |= ((dp != dm) & ((dp * dm < 0.0) | (np.abs(dp) < 1e-12)
                                           | (np.abs(dm) < 1e-12))).any(axis=1)
            return (f[:n] - f[n:]) / (2.0 * h), straddle

        max_rel = 0.0
        worst: CoordinateError | None = None
        checked = skipped = 0
        # numpy's error state is per thread, and a new thread starts from
        # the default, which warns.
        with np.errstate(all="ignore"):
            for lo in range(0, flat.size, _PROBE_BLOCK):
                coords = np.arange(lo, min(lo + _PROBE_BLOCK, flat.size))
                numeric, straddle = central(coords, step)
                analytic = grad_flat[coords]
                rel = self._relative_error(analytic, numeric)
                for j in np.flatnonzero(~straddle & (rel >= 0.5 * tolerance)):
                    # Small gradients formed by cancellation of large
                    # branches are roundoff/truncation limited at any
                    # single width; a Richardson ladder over shrinking
                    # widths cancels the even-order truncation terms.
                    table: list[list[float]] = []
                    for k in range(4):
                        d, straddles = central(coords[j:j + 1], 3.2e-3 / (2.0 ** k))
                        if straddles[0]:
                            break
                        row = [float(d[0])]
                        for m in range(1, len(table) + 1):
                            scale = 4.0 ** m
                            row.append((scale * row[m - 1] - table[-1][m - 1])
                                       / (scale - 1.0))
                        table.append(row)
                        for estimate in row:
                            retry_rel = self._relative_error(analytic[j], estimate)
                            if retry_rel < rel[j]:
                                rel[j], numeric[j] = retry_rel, estimate
                        if rel[j] < 0.25 * tolerance:
                            break
                # A non-finite difference or gradient (a probe that left
                # the domain, say) fails the check; it is never skipped.
                bad = ~np.isfinite(rel)
                rel[bad] = np.inf
                straddle &= ~bad
                n_skipped = int(straddle.sum())
                skipped += n_skipped
                checked += len(coords) - n_skipped
                # First coordinate of the block's largest error; skipped
                # entries never rank.
                ranked = np.where(straddle, -1.0, rel)
                j = int(np.argmax(ranked))
                if ranked[j] > max_rel:
                    max_rel = float(ranked[j])
                    c = int(coords[j])
                    worst = CoordinateError(
                        parameter=name,
                        coordinate=tuple(int(k) for k in np.unravel_index(c, theta.shape))
                        if theta.shape else (),
                        analytic=float(analytic[j]),
                        numeric=float(numeric[j]),
                    )
        return FiniteDifferenceReport(
            max_relative_error=max_rel,
            per_parameter={name: max_rel},
            worst=worst,
            checked_coordinates=checked,
            skipped_coordinates=skipped,
            passed=max_rel < tolerance,
        )


def _run_on_every_cpu(jobs: Sequence[Callable[[], object]], order: Sequence[int]) -> list:
    """Each job's result, by job index.  The jobs wait in one queue, in
    order; the calling thread takes them from its front, and one helper
    thread per other CPU this process may use from its back.  If a job
    raises, no thread takes another job, every helper is joined, and the
    exception of the failed job with the lowest index is raised."""
    pending = deque(order)
    results: list = [None] * len(jobs)
    failures: dict[int, Exception] = {}
    stop = threading.Event()

    def work(take) -> None:
        while not stop.is_set():
            try:
                k = take()
            except IndexError:
                return
            try:
                results[k] = jobs[k]()
            except Exception as exc:
                failures[k] = exc
                stop.set()

    # The affinity set where the platform has one (not macOS or Windows).
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    helpers = [threading.Thread(target=work, args=(pending.pop,), daemon=True)
               for _ in range(1, min(cpus or 1, len(jobs)))]
    for helper in helpers:
        helper.start()
    try:
        work(pending.popleft)
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


class LRUCache:
    """Items by key, each built once; past maxsize the least recently used
    is dropped."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._items: OrderedDict = OrderedDict()

    def get(self, key, build: Callable[[], object]):
        """The item under key, from build() the first time."""
        item = self._items.get(key)
        if item is None:
            item = self._items[key] = build()
            if len(self._items) > self.maxsize:
                self._items.popitem(last=False)
        else:
            self._items.move_to_end(key)
        return item

    def __contains__(self, key) -> bool:
        return key in self._items


# ----------------------------------------------------------------------
# Named parameter collections and checkpoint serialization

_CHECKPOINT_MAGIC = b"LZP1"


class ParamStore:
    """Named float64 tensors end to end in one flat array, the trainable ones
    first and the frozen (non-trainable) ones last, each in the order given.
    store[name] is a read-only view, so it shows every later update; copy()
    gives a snapshot.  Every value is finite, so a graph need not test a view
    it holds again.

    It keeps what is derived from it for exactly its own life: graphs, the
    graphs built over its views, which see every descend, and text_rows,
    the frozen text tower's read-only rows of the 4,096 texts used last,
    which no descend changes.  A new store and a copy start with both
    empty.  Neither holds the store itself, so a dropped store frees them
    at once."""

    def __init__(self, values: Mapping[str, object], frozen: Iterable[str] = ()) -> None:
        arrays = {n: np.asarray(v, dtype=np.float64) for n, v in values.items()}
        self.frozen = frozenset(frozen)
        for name in self.frozen - set(arrays):
            raise KeyError(f"frozen name not in store: {name}")
        self._trainable = [n for n in arrays if n not in self.frozen]
        order = self._trainable + [n for n in arrays if n in self.frozen]
        bounds = np.cumsum([0] + [arrays[n].size for n in order]).tolist()
        self._spans = {n: slice(lo, hi) for n, lo, hi in zip(order, bounds, bounds[1:])}
        self._flat = np.concatenate([arrays[n].reshape(-1) for n in order] + [np.empty(0)])
        self._flat.flags.writeable = False
        self._raise_if_non_finite(self._flat, order, ValueError,
                                  "parameter {} has non-finite entries")
        self._views = {n: self._flat[self._spans[n]].reshape(arrays[n].shape) for n in order}
        self._trainable_flat = self._flat[:bounds[len(self._trainable)]]
        self.graphs = LRUCache(maxsize=64)
        self.text_rows = LRUCache(maxsize=4096)

    def _raise_if_non_finite(self, flat: Array, names: list[str], error, message: str) -> None:
        """Raise error naming the first of names whose span of flat is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            if not _finite(flat):
                raise error(message.format(next(
                    n for n in names if not np.isfinite(flat[self._spans[n]]).all())))

    def __getitem__(self, name: str) -> Array:
        return self._views[name]

    def items(self):
        return self._views.items()

    def names(self) -> list[str]:
        return list(self._views)

    def trainable_names(self) -> list[str]:
        return list(self._trainable)

    def descend(self, step: float, gradient: Array) -> None:
        """Subtract step * gradient from the trainable values in place; gradient
        is laid out as they are (trainable_names' order, each tensor raveled)
        and is overwritten.  A non-finite result raises EvaluationError naming
        the first parameter that has one, and leaves every value as it was."""
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(self._trainable_flat, np.multiply(gradient, step, out=gradient),
                        out=gradient)
        self._raise_if_non_finite(gradient, self._trainable, EvaluationError,
                                  "non-finite value in parameter {}")
        self._flat.flags.writeable = True
        self._flat[:gradient.size] = gradient
        self._flat.flags.writeable = False

    def copy(self) -> "ParamStore":
        return ParamStore(self._views, frozen=self.frozen)


def save_checkpoint(store: ParamStore | Mapping[str, Array], path) -> None:
    """Write parameters: magic, count, then per tensor name/rank/dims/values.

    All integers are little-endian uint32; values are little-endian float64
    in row-major order.  Insertion order is preserved.
    """
    items = list(store.items())
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(items)))
        for name, value in items:
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(value, dtype="<f8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, Array]:
    """Read a checkpoint written by save_checkpoint into read-only arrays,
    views of the file's bytes; a malformed file raises ValueError naming
    the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 4

    def take(size: int) -> memoryview:
        nonlocal offset
        if offset + size > len(data):
            raise ValueError(f"truncated at byte {len(data)}")
        offset += size
        return memoryview(data)[offset - size:offset]

    def read_u32() -> int:
        return struct.unpack("<I", take(4))[0]

    try:
        if data[:4] != _CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {data[:4]!r}")
        out: dict[str, Array] = {}
        for _ in range(read_u32()):
            name = bytes(take(read_u32())).decode("utf-8")
            shape = tuple(read_u32() for _ in range(read_u32()))
            out[name] = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return out


def derive_seed(seed: int, *salt) -> int:
    """Deterministically derive an independent substream seed."""
    digest = hashlib.sha256()
    digest.update(str(int(seed)).encode())
    for s in salt:
        digest.update(b"/")
        digest.update(str(s).encode("utf-8"))
    return int.from_bytes(digest.digest()[:4], "little")
