"""Expression graph: forward semantics, gradients, finite differences, checkpoints."""

import inspect
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import run_every_node, snapshot
from slotnav.autodiff import (
    _HIDING_OPS,
    EvaluationError,
    Graph,
    Node,
    ParamStore,
    ShapeError,
    derive_seed,
    load_checkpoint,
    save_checkpoint,
)


def _ln(g, x):
    """layer_norm with a gain of ones and a bias of zeros: the normalized rows."""
    width = x.shape[-1]
    return g.layer_norm(x, g.constant(np.ones(width)), g.constant(np.zeros(width)))


def test_elementwise_square():
    g = Graph()
    x = g.parameter("x", [3.0])
    y = g.multiply(x, x)
    assert np.allclose(g.evaluate(y), [9.0])


def test_softmax_uniform_logits():
    g = Graph()
    x = g.constant([0.0, 0.0, 0.0])
    out = g.evaluate(g.softmax(x, axis=0))
    assert np.allclose(out, [1.0 / 3.0] * 3, atol=1e-15)


def test_matmul_shape_contract():
    g = Graph()
    a = g.constant(np.zeros((2, 3)))
    b = g.constant(np.zeros((3, 4)))
    assert g.matmul(a, b).shape == (2, 4)
    with pytest.raises(ShapeError):
        g.matmul(b, a)


def test_shape_error_names_node():
    g = Graph()
    a = g.parameter("a", np.zeros((2, 3)))
    b = g.parameter("b", np.zeros((2, 4)))
    with pytest.raises(ShapeError) as err:
        g.add(a, b)
    assert "add" in str(err.value)


def test_non_finite_intermediate_is_reported():
    g = Graph()
    x = g.parameter("x", [-1.0])
    with pytest.raises(EvaluationError) as err:
        g.evaluate(g.sqrt(x))
    assert "sqrt" in str(err.value)


def test_frame_extension_runs_only_the_new_nodes():
    # A frame is extended by binding an input after part of the graph ran;
    # the next call runs only the nodes without a value.
    g = Graph()
    x = g.parameter("x", [0.5, -1.5])
    tower = g.tanh(g.gelu(x))
    k = g.input((2,), "k")
    head = g.sum(g.softmax(g.multiply(tower, k), axis=0))
    frame = g.bind()
    first = g.evaluate(tower, frame=frame)
    ran = []
    forward = list(g._forward)
    g._forward[:] = [fn if fn is None else (lambda v, i=i, fn=fn: ran.append(i) or fn(v))
                     for i, fn in enumerate(forward)]
    g.bind({k: [2.0, 3.0]}, frame=frame)
    value = g.evaluate(head, frame=frame)
    assert sorted(ran) == [i for i in range(tower.index + 1, head.index + 1) if i != k.index]
    assert frame.values[tower.index] is first
    g._forward[:] = forward
    assert value == g.evaluate(head)


def test_gradient_of_square():
    g = Graph()
    x = g.parameter("x", 3.0)
    y = g.multiply(x, x)
    report = g.gradient(y)
    assert g.evaluate(y) == pytest.approx(9.0)
    assert report.gradients["x"] == pytest.approx(6.0)


def test_gradient_requires_scalar_output():
    g = Graph()
    x = g.parameter("x", [1.0, 2.0])
    with pytest.raises(ShapeError):
        g.gradient(g.multiply(x, x))


def test_l1_subgradient_away_from_kink():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=5)
    c0 = x0 + np.where(rng.random(5) > 0.5, 0.75, -0.75)
    g = Graph()
    x = g.parameter("x", x0)
    c = g.constant(c0)
    loss = g.sum(g.absolute(g.subtract(x, c)))
    report = g.gradient(loss)
    assert np.array_equal(report.gradients["x"], np.sign(x0 - c0))


def test_softmax_cross_entropy_gradient_matches_central_differences():
    # Uniform logits, target class 0 of 3: gradient is softmax - onehot.
    def loss_value(logits):
        z = logits - logits.max()
        return float(np.log(np.exp(z).sum()) - z[0])

    logits0 = np.zeros(3)
    g = Graph()
    logits = g.parameter("logits", logits0)
    log_probs = g.log_softmax(logits, axis=0)
    onehot = g.constant([1.0, 0.0, 0.0])
    loss = g.affine(g.sum(g.multiply(onehot, log_probs)), -1.0, 0.0)
    report = g.gradient(loss)
    assert np.allclose(report.gradients["logits"], [-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])

    step = 1e-5
    for i in range(3):
        probe = np.zeros(3)
        probe[i] = step
        numeric = (loss_value(logits0 + probe) - loss_value(logits0 - probe)) / (2 * step)
        assert report.gradients["logits"][i] == pytest.approx(numeric, abs=1e-9)


def test_finite_difference_exact_for_quadratic():
    g = Graph()
    x = g.parameter("x", np.arange(1.0, 6.0))
    loss = g.sum(g.multiply(x, x))
    report = g.finite_difference_check(loss)
    assert report.passed
    assert report.max_relative_error < 1e-6


def test_finite_difference_skips_exact_kink():
    g = Graph()
    x = g.parameter("x", [0.0, 1.0])
    loss = g.sum(g.absolute(x))
    report = g.finite_difference_check(loss, step=1e-5)
    assert report.skipped_coordinates == 1
    assert report.checked_coordinates == 1
    assert report.passed


def test_finite_difference_report_holds_python_floats():
    g = Graph()
    x = g.parameter("x", np.linspace(-1.0, 1.0, 70).reshape(7, 10))
    report = g.finite_difference_check(g.sum(g.sigmoid(x)))
    assert report.passed and report.worst is not None
    assert type(report.max_relative_error) is float
    assert all(type(v) is float for v in report.per_parameter.values())
    assert all(type(v) is float for v in (report.worst.analytic, report.worst.numeric))


def test_finite_difference_fails_on_a_non_finite_difference():
    # The -step probe of the first entry leaves sqrt's domain.
    g = Graph()
    x = g.parameter("x", [4e-6, 1.0])
    report = g.finite_difference_check(g.sum(g.sqrt(x)))
    assert not report.passed
    assert report.checked_coordinates == 2
    assert report.skipped_coordinates == 0
    assert report.max_relative_error == float("inf")
    assert report.worst.parameter == "x"
    assert report.worst.coordinate == (0,)
    assert np.isnan(report.worst.numeric)


def test_finite_difference_skips_minmax_branch_flip():
    g = Graph()
    x = g.parameter("x", [2.0, 2.0 + 1e-7])
    y = g.constant([2.0 + 1e-7, 5.0])
    loss = g.sum(g.minimum(x, y))
    report = g.finite_difference_check(loss, step=1e-5)
    assert report.skipped_coordinates == 1
    assert report.checked_coordinates == 1


def test_finite_difference_drops_probed_values_without_changing_the_report(monkeypatch):
    # A value read by three nodes, a kink whose operands must outlive their
    # readers, and layer_norm's statistics parent.
    rng = np.random.default_rng(11)
    g = Graph()
    x = g.parameter("x", rng.normal(size=(3, 4)))
    w = g.parameter("w", rng.normal(size=(4, 4)))
    h = _ln(g, g.matmul(x, w))
    y = g.maximum(g.multiply(h, h), g.tanh(h))
    loss = g.sum(g.multiply(y, g.gelu(h)))
    plan, drops = Graph._probe_plan, []

    def counted(self, order, keep):
        steps = plan(self, order, keep)
        drops.append(sum(len(dead) for _, _, dead in steps))
        return steps

    monkeypatch.setattr(Graph, "_probe_plan", counted)
    dropped = g.finite_difference_check(loss, step=1e-6)
    monkeypatch.setattr(Graph, "_probe_plan",
                        lambda self, order, keep: [(i, fn, ()) for i, fn, _ in
                                                   plan(self, order, keep)])
    assert dropped == g.finite_difference_check(loss, step=1e-6)
    assert dropped.passed and min(drops) > 0


def _sweep_graph():
    """A loss with a coordinate that straddles a kink, coordinates whose
    difference at width 1e-2 needs the Richardson retries, two parameters
    with equal errors, and a parameter that does not feed the output."""
    rng = np.random.default_rng(4)
    g = Graph()
    kink = g.parameter("kink", [0.0, 1.0])
    steep = rng.normal(scale=0.1, size=(3, 5))
    a = g.parameter("a", steep)
    b = g.parameter("b", steep)
    x = g.parameter("x", rng.normal(scale=0.2, size=(3, 5)))
    w = g.parameter("w", rng.normal(scale=0.2, size=(5, 70)))
    g.parameter("unused", rng.normal(size=4))
    loss = g.add(g.sum(g.absolute(kink)),
                 g.add(g.sum(g.tanh(g.affine(a, 10.0, 0.0))),
                       g.sum(g.tanh(g.affine(b, 10.0, 0.0)))))
    return g, g.add(loss, g.sum(g.tanh(g.matmul(g.tanh(x), w))))


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_a_sweep_on_several_threads_equals_a_one_thread_sweep(monkeypatch):
    g, loss = _sweep_graph()

    def sweep(cpus, tolerance):
        _cpus(monkeypatch, cpus)
        return g.finite_difference_check(loss, step=1e-2, tolerance=tolerance)

    # More threads than this host's CPUs, switching as often as they can.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = [sweep(8, tolerance) for tolerance in (1e-4, 1.0)]
    finally:
        sys.setswitchinterval(interval)
    retried, one_width = [sweep(1, tolerance) for tolerance in (1e-4, 1.0)]
    assert parallel == [retried, one_width]
    assert retried.passed and retried.skipped_coordinates == 1
    assert retried.checked_coordinates == 1 + 3 * 15 + 350
    assert retried.per_parameter["unused"] == 0.0
    # Only the retries bring tanh(10 x) within tolerance at a width of 1e-2;
    # a tolerance of 1 retries nothing.
    assert one_width.max_relative_error > 1e-4 > retried.max_relative_error
    # a and b tie, and the first parameter to reach the largest error names it.
    assert one_width.per_parameter["a"] == one_width.per_parameter["b"]
    assert one_width.worst.parameter == "a"


def test_a_failed_probe_raises_the_earliest_parameters_error_after_joining_helpers(
        monkeypatch):
    # The queue runs from the largest parameter to the smallest: the calling
    # thread takes p4 and the helper p0.  p4 fails first, and p0 after it.
    g = Graph()
    params = [g.parameter(f"p{k}", np.linspace(0.1, 0.5, k + 1)) for k in range(5)]
    loss = g.sum(g.concat([g.tanh(p) for p in params], axis=0))
    probe, taken = Graph._probe_parameter, []

    def failing(self, name, *args):
        taken.append(name)
        if name in ("p0", "p4"):
            time.sleep(0.3 if name == "p0" else 0.1)
            raise RuntimeError(f"probe of {name} failed")
        return probe(self, name, *args)

    monkeypatch.setattr(Graph, "_probe_parameter", failing)
    _cpus(monkeypatch, 2)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^probe of p0 failed$"):
        g.finite_difference_check(loss)
    assert threading.active_count() == threads
    # Each thread stopped at its failure, so no other parameter was taken.
    assert sorted(taken) == ["p0", "p4"]
    monkeypatch.setattr(Graph, "_probe_parameter", probe)
    assert g.finite_difference_check(loss).passed
    assert threading.active_count() == threads


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_probe_that_overflows_on_a_helper_thread_warns_nothing(monkeypatch):
    # affine overflows at the +step probe of every coordinate: 1.797693e308
    # is just below the largest float.
    g = Graph()
    params = [g.parameter(f"x{k}", [1.797693]) for k in range(8)]
    loss = g.sum(g.affine(g.concat([g.affine(p, 1e308, 0.0) for p in params], axis=0),
                          1e-300, 0.0))
    probe, threads = Graph._probe_parameter, set()

    def recording(self, *args):
        threads.add(threading.get_ident())
        time.sleep(0.02)
        return probe(self, *args)

    monkeypatch.setattr(Graph, "_probe_parameter", recording)
    _cpus(monkeypatch, 4)
    report = g.finite_difference_check(loss)
    assert len(threads) > 1
    assert not report.passed and report.max_relative_error == float("inf")
    assert report.checked_coordinates == 8


def _unary_cases():
    return [
        ("sigmoid", lambda g, x: g.sigmoid(x), None),
        ("tanh", lambda g, x: g.tanh(x), None),
        ("gelu", lambda g, x: g.gelu(x), None),
        ("sqrt", lambda g, x: g.sqrt(x), "positive"),
        ("absolute", lambda g, x: g.absolute(x), "nonzero"),
        ("softmax", lambda g, x: g.softmax(x, axis=1), None),
        ("log_softmax", lambda g, x: g.log_softmax(x, axis=1), None),
        ("layer_norm", _ln, None),
        ("transpose", lambda g, x: g.transpose(x), None),
        ("transpose_axes", lambda g, x: g.transpose(g.reshape(x, (2, 3, 2)), (2, 0, -2)), None),
        ("reshape", lambda g, x: g.reshape(x, (6, 2)), None),
        ("slice_last", lambda g, x: g.slice(x, 1, 3), None),
        ("slice_rows", lambda g, x: g.slice(x, 1, 3, axis=-2), None),
        ("slice_stacked_rows", lambda g, x: g.slice(g.reshape(x, (2, 3, 2)), 0, 2, axis=-2),
         None),
        ("sum_axis", lambda g, x: g.sum(x, axis=0), None),
        ("mean_axis", lambda g, x: g.mean(x, axis=1), None),
        ("mean_all", lambda g, x: g.mean(x), None),
        ("affine", lambda g, x: g.affine(x, -1.7, 0.3), None),
    ]


def test_every_op_gradient_matches_finite_differences_100_seeds():
    cases = _unary_cases()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        name, build, domain = cases[seed % len(cases)]
        x0 = rng.normal(size=(3, 4))
        if domain == "positive":
            x0 = np.abs(x0) + 0.5
        elif domain == "nonzero":
            x0 = np.where(np.abs(x0) < 0.2, x0 + 0.5, x0)
        g = Graph()
        x = g.parameter("x", x0)
        out = build(g, x)
        weights = g.constant(rng.normal(size=out.shape))
        loss = g.sum(g.multiply(out, weights))
        report = g.finite_difference_check(loss, step=1e-6, tolerance=1e-4)
        assert report.passed, f"{name} seed {seed}: {report.max_relative_error}"


def test_binary_op_gradients_match_finite_differences():
    builders = [
        lambda g, a, b: g.add(a, b),
        lambda g, a, b: g.subtract(a, b),
        lambda g, a, b: g.multiply(a, b),
        lambda g, a, b: g.divide(a, b),
        lambda g, a, b: g.minimum(a, b),
        lambda g, a, b: g.maximum(a, b),
        lambda g, a, b: g.matmul(a, g.transpose(b)),
        lambda g, a, b: g.concat([a, b], axis=0),
        lambda g, a, b: g.concat([a, b], axis=1),
    ]
    for seed, build in enumerate(builders):
        rng = np.random.default_rng(100 + seed)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(3, 4))
        # Keep divisor and min/max discriminant away from zero.
        b0 = np.where(np.abs(b0) < 0.3, b0 + 0.7, b0)
        b0 = np.where(np.abs(a0 - b0) < 0.05, b0 + 0.3, b0)
        g = Graph()
        a = g.parameter("a", a0)
        b = g.parameter("b", b0)
        out = build(g, a, b)
        loss = g.sum(g.multiply(out, g.constant(np.random.default_rng(seed).normal(size=out.shape))))
        report = g.finite_difference_check(loss, step=1e-6, tolerance=1e-4)
        assert report.passed, f"case {seed}: {report.max_relative_error}"


def test_trailing_broadcast_add_and_its_gradient():
    g = Graph()
    a = g.parameter("a", np.ones((3, 4)))
    b = g.parameter("b", np.arange(4.0))
    out = g.add(a, b)
    assert out.shape == (3, 4)
    report = g.gradient(g.sum(out))
    assert np.array_equal(report.gradients["b"], np.full(4, 3.0))
    with pytest.raises(ShapeError):
        g.add(a, g.parameter("c", np.zeros(3)))

    # The probes of all four entries of b stack into 8 rows, as many as p has;
    # they must broadcast over p's rows, not line up with them.
    rng = np.random.default_rng(5)
    h = Graph()
    p = h.parameter("p", rng.normal(size=(8, 4)))
    q = h.parameter("q", rng.normal(size=4))
    s = h.add(p, q)
    report = h.finite_difference_check(h.sum(h.multiply(s, h.tanh(s))))
    assert report.passed, f"max rel error {report.max_relative_error:.3e}"
    assert (report.checked_coordinates, report.skipped_coordinates) == (36, 0)


def test_ops_act_on_trailing_axes_and_broadcast_leading_ones():
    rng = np.random.default_rng(8)
    xv, wv = rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2))
    sv, cv = rng.normal(size=(3, 5, 2)), np.abs(rng.normal(size=(3, 1, 2))) + 1.0
    g = Graph()
    x, w = g.parameter("x", xv), g.parameter("w", wv)
    stack, col = g.parameter("stack", sv), g.parameter("col", cv)
    shared = g.matmul(x, w)
    own = g.matmul(x, stack)
    ratio = g.divide(own, col)
    gram = g.matmul(g.transpose(own), shared)
    cols = g.slice(x, 1, 3)
    assert shared.shape == own.shape == ratio.shape == cols.shape == (3, 4, 2)
    assert g.transpose(x).shape == (3, 5, 4) and gram.shape == (3, 2, 2)

    # Batched values are the per-item values, each computed alone.
    values = g.evaluate([shared, own, ratio, gram, cols])
    for b in range(3):
        assert np.allclose(values[0][b], xv[b] @ wv, rtol=0, atol=1e-12)
        assert np.allclose(values[1][b], xv[b] @ sv[b], rtol=0, atol=1e-12)
        assert np.array_equal(values[2][b], values[1][b] / cv[b])
        assert np.allclose(values[3][b], (xv[b] @ sv[b]).T @ (xv[b] @ wv), rtol=0, atol=1e-12)
        assert np.array_equal(values[4][b], xv[b][:, 1:3])

    probe = g.constant(rng.normal(size=(3, 4, 2)))
    loss = g.sum(g.multiply(g.tanh(g.add(g.add(shared, own), ratio)), probe))
    loss = g.add(loss, g.sum(g.multiply(gram, gram)))
    loss = g.add(loss, g.sum(g.multiply(cols, probe)))
    report = g.finite_difference_check(loss, step=1e-6)
    assert report.passed, f"max rel error {report.max_relative_error:.3e}"
    assert (report.checked_coordinates, report.skipped_coordinates) == (106, 0)

    with pytest.raises(ShapeError):
        g.matmul(x, g.constant(np.zeros((2, 5, 2))))
    with pytest.raises(ShapeError):
        g.matmul(g.constant(np.zeros((4, 5))), stack)
    with pytest.raises(ShapeError):
        g.divide(col, own)
    with pytest.raises(ShapeError):
        g.add(x, g.constant(np.zeros((2, 1, 5))))
    for start, stop, axis in ((0, 5, -2), (2, 2, -1), (0, 1, 3), (0, 1, -4)):
        with pytest.raises(ShapeError):
            g.slice(x, start, stop, axis=axis)


def test_scalar_broadcast_against_matrix():
    g = Graph()
    a = g.parameter("a", np.full((2, 2), 3.0))
    t = g.parameter("t", 2.0)
    out = g.divide(a, t)
    assert np.allclose(g.evaluate(out), 1.5)
    report = g.gradient(g.sum(out))
    assert report.gradients["t"] == pytest.approx(-3.0)


def test_evaluate_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(42)
        g = Graph()
        a = g.parameter("a", rng.normal(size=(8, 8)))
        b = g.parameter("b", rng.normal(size=(8, 8)))
        out = _ln(g, g.gelu(g.matmul(a, b)))
        return g.evaluate(g.softmax(out, axis=1))

    assert run().tobytes() == run().tobytes()


def test_softmax_rows_and_layer_norm_moments():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(6, 9)) * 4.0
    g = Graph()
    x = g.constant(x0)
    soft = g.evaluate(g.softmax(x, axis=1))
    assert np.all(np.abs(soft.sum(axis=1) - 1.0) < 1e-9)
    normed = g.evaluate(_ln(g, x))
    assert np.all(np.abs(normed.mean(axis=1)) < 1e-7)
    assert np.all(np.abs(normed.var(axis=1) - 1.0) < 1e-6)


def test_sigmoid_saturates_to_pinned_values():
    xs = [0.0, 37.0, 40.0, 800.0, -36.0, -37.0, -38.0, -40.0, -800.0]
    g = Graph()
    out = g.evaluate(g.sigmoid(g.constant(xs)))
    assert out.tolist() == [0.5, 1.0, 1.0, 1.0, 2.0 ** -52, 2.0 ** -54, 0.0, 0.0, 0.0]
    grid = np.linspace(-800.0, 800.0, 16001)
    out = g.evaluate(g.sigmoid(g.constant(grid)))
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert np.all(out[grid >= 37.0] == 1.0) and np.all(out[grid <= -38.0] == 0.0)


def test_gelu_and_sigmoid_match_their_textbook_forms_within_4_5e_16():
    def masked_sigmoid(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def power_gelu(x):
        return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))

    grid = np.linspace(-40.0, 40.0, 160001)
    g = Graph()
    x = g.constant(grid)
    sig, gelu = g.evaluate([g.sigmoid(x), g.gelu(x)])
    assert np.max(np.abs(sig - masked_sigmoid(grid))) <= 4.5e-16
    assert np.max(np.abs(gelu - power_gelu(grid))) <= 4.5e-16


@pytest.mark.parametrize("shape", [(9,), (6, 9), (3, 4, 32), (128, 2, 4, 32)])
def test_layer_norm_forward_equals_the_two_pass_variance_form(shape):
    x0 = np.random.default_rng(len(shape)).normal(size=shape) * 3.0 + 1.0
    g = Graph()
    out = g.evaluate(_ln(g, g.constant(x0)))
    mu = x0.mean(axis=-1, keepdims=True)
    want = (x0 - mu) / np.sqrt(x0.var(axis=-1, keepdims=True) + 1e-8)
    assert out.tobytes() == want.tobytes()


def test_elementwise_kernels_give_the_same_bits_with_a_leading_probe_axis():
    rng = np.random.default_rng(9)
    probes = rng.normal(size=(6, 2, 4, 32)) * 4.0
    g = Graph()
    x = g.parameter("x", probes[0])
    outs = [g.gelu(x), g.sigmoid(x), _ln(g, x)]

    def run(value):
        values = list(g.bind().values)
        values[x.index] = value
        for i, fn in enumerate(g._forward):
            if fn is not None:
                values[i] = fn(values)
        return [values[o.index] for o in outs]

    stacked = run(probes)
    for p, probe in enumerate(probes):
        for got, want in zip(stacked, run(probe)):
            assert got[p].tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["linear", "layer_norm"])
@pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3)])
def test_a_fused_op_gives_the_bits_of_the_ops_it_replaces(kind, shape):
    # linear is matmul then add; layer_norm is the normalized rows (a gain
    # of ones and a bias of zeros), then multiply by the gain, then add the
    # bias.
    rng = np.random.default_rng(len(shape))
    g = Graph()
    x = g.parameter("x", rng.normal(size=shape) * 3.0 + 1.0)
    if kind == "linear":
        w, b = g.parameter("w", rng.normal(size=(3, 4))), g.parameter("b", rng.normal(size=4))
        fused, composed = g.linear(x, w, b), g.add(g.matmul(x, w), b)
    else:
        w, b = g.parameter("w", rng.normal(size=3)), g.parameter("b", rng.normal(size=3))
        fused, composed = g.layer_norm(x, w, b), g.add(g.multiply(_ln(g, x), w), b)

    def run(leaf, value):
        values = list(g.bind().values)
        values[leaf.index] = value
        for i, fn in enumerate(g._forward):
            if fn is not None:
                values[i] = fn(values)
        return values[fused.index], values[composed.index]

    got, want = run(x, g.evaluate(x))
    assert got.shape == fused.shape and got.tobytes() == want.tobytes()
    # A leading probe axis on each operand in turn.
    for leaf in (x, w, b):
        probes = g.evaluate(leaf) + 0.1 * rng.normal(size=(6,) + leaf.shape)
        got, want = run(leaf, probes)
        assert got.shape == (6,) + fused.shape and got.tobytes() == want.tobytes()
        for p, probe in enumerate(probes):
            assert got[p].tobytes() == run(leaf, probe)[0].tobytes()

    weights = g.constant(rng.normal(size=fused.shape))
    got = g.gradient(g.sum(g.multiply(fused, weights))).gradients
    want = g.gradient(g.sum(g.multiply(composed, weights))).gradients
    for name in ("x", "w", "b"):
        assert got[name].tobytes() == want[name].tobytes(), name


def test_fused_ops_check_their_operand_shapes():
    g = Graph()
    x, w = g.constant(np.zeros((2, 3))), g.constant(np.zeros((3, 4)))
    for args in ((x, w, g.constant(np.zeros(3))), (x, g.constant(np.zeros((2, 4))), x),
                 (g.constant(np.zeros(3)), w, g.constant(np.zeros(4)))):
        with pytest.raises(ShapeError, match="^linear: "):
            g.linear(*args)
    for gain, bias in ((g.constant(np.ones(3)), g.constant(np.zeros(4))),
                       (g.constant(np.ones(4)), g.constant(np.zeros(3))),
                       (g.constant(np.ones(4)), g.constant(np.zeros(4)))):
        with pytest.raises(ShapeError, match="^layer_norm: "):
            g.layer_norm(x, gain, bias)


def test_gradient_for_unused_parameter_is_zero():
    g = Graph()
    x = g.parameter("x", np.ones(3))
    g.parameter("unused", np.ones((2, 2)))
    report = g.gradient(g.sum(g.multiply(x, x)))
    assert np.array_equal(report.gradients["unused"], np.zeros((2, 2)))


def test_gradients_are_views_of_one_flat_array_in_the_order_asked():
    rng = np.random.default_rng(3)
    wv, bv = rng.normal(size=(2, 3)), rng.normal(size=3)
    g = Graph()
    w, b, s = g.parameter("w", wv), g.parameter("b", bv), g.parameter("s", 1.5)
    g.parameter("unused", np.ones((2, 2)))
    report = g.gradient(g.sum(g.multiply(g.add(w, b), s)), ["s", "unused", "w", "b"])
    want = {"s": np.sum(wv + bv), "unused": np.zeros((2, 2)), "w": np.full((2, 3), 1.5),
            "b": np.full(3, 3.0)}
    flat = report.flat
    assert flat.shape == (14,) and list(report.gradients) == list(want)
    offset = 0
    for name, grad in report.gradients.items():
        assert grad.base is flat and grad.shape == np.shape(want[name])
        assert np.array_equal(flat[offset:offset + grad.size], np.ravel(want[name]))
        offset += grad.size
    assert offset == flat.size


def test_descend_is_the_per_tensor_update_and_leaves_a_diverging_store_as_it_was():
    rng = np.random.default_rng(12)
    values = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4),
              "txt.c": rng.normal(size=2)}
    store = ParamStore(values, frozen=["txt.c"])
    grad = rng.normal(size=10)
    lr = 0.37
    store.descend(lr, grad.copy())
    assert store["a"].tobytes() == (values["a"] - lr * grad[:6].reshape(3, 2)).tobytes()
    assert store["b"].tobytes() == (values["b"] - lr * grad[6:]).tobytes()
    assert store["txt.c"].tobytes() == values["txt.c"].tobytes()

    # A graph over the store's views gives its gradients in the store's
    # order, so the flat gradient is what descend takes.
    g = Graph()
    a, b = g.parameter("a", store["a"]), g.parameter("b", store["b"])
    loss = g.sum(g.multiply(g.sum(g.sigmoid(a), axis=-1), g.constant(store["txt.c"][:1])))
    report = g.gradient(g.add(loss, g.sum(g.tanh(b))), store.trainable_names())
    assert report.flat.tobytes() == np.concatenate(
        [report.gradients[n].ravel() for n in ("a", "b")]).tobytes()
    want = {n: store[n] - lr * report.gradients[n] for n in ("a", "b")}
    store.descend(lr, report.flat)
    assert all(store[n].tobytes() == want[n].tobytes() for n in ("a", "b"))

    before = {n: store[n].copy() for n in store.names()}
    huge = np.full(10, 1e300)
    huge[:6] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=r"^non-finite value in parameter b$"):
            store.descend(1e10, huge)
    for name in store.names():
        assert store[name].tobytes() == before[name].tobytes()
    with pytest.raises(ValueError, match="shape"):
        store.descend(lr, np.zeros(12))


def test_a_stacked_weight_gradient_is_one_product_equal_to_the_per_image_sum():
    rng = np.random.default_rng(21)
    xv, wv, cv = rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2)), rng.normal(size=(3, 4, 2))
    g = Graph()
    x, w = g.parameter("x", xv), g.parameter("w", wv)
    loss = g.sum(g.multiply(g.tanh(g.matmul(x, w)), g.constant(cv)))
    grads = g.gradient(loss).gradients
    upstream = cv * (1.0 - np.tanh(xv @ wv) ** 2)
    per_image = sum(xv[b].T @ upstream[b] for b in range(3))
    assert np.allclose(grads["w"], per_image, rtol=1e-12, atol=0.0)
    assert np.allclose(grads["x"], upstream @ wv.T, rtol=1e-12, atol=0.0)
    report = g.finite_difference_check(loss, step=1e-6, tolerance=1e-6)
    assert report.passed, f"max rel error {report.max_relative_error:.3e}"


def test_transpose_takes_a_permutation_of_its_operand_axes():
    g = Graph()
    x = g.constant(_x(2, 3, 4))
    assert g.transpose(x, (2, 0, 1)).shape == (4, 2, 3)
    assert g.transpose(x, (-1, 0, 1)).shape == (4, 2, 3)
    assert np.array_equal(g.evaluate(g.transpose(x, (1, 2, 0))), _x(2, 3, 4).transpose(1, 2, 0))
    for bad in ((0, 1), (0, 1, 1), (0, 1, 3), (0, 1, -4)):
        with pytest.raises(ShapeError, match="not a permutation"):
            g.transpose(x, bad)
    with pytest.raises(ShapeError, match="needs two axes"):
        g.transpose(g.constant(_x(3)))


def test_checkpoint_roundtrip_and_magic():
    rng = np.random.default_rng(11)
    store = ParamStore({
        "w": rng.normal(size=(3, 2)),
        "b": rng.normal(size=2),
        "scalar": np.asarray(1.5),
    })
    path = "/tmp/slotnav_ckpt_test.lzp"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    assert list(loaded) == ["w", "b", "scalar"]
    for name in store.names():
        assert loaded[name].tobytes() == store[name].tobytes()
    with open(path, "rb") as fh:
        assert fh.read(4) == b"LZP1"
    with open(path, "wb") as fh:
        fh.write(b"XXXX" + b"\x00" * 8)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_wire_format_is_little_endian():
    import struct

    path = "/tmp/slotnav_ckpt_wire.lzp"
    payload = b"LZP1" + struct.pack("<I", 1)
    payload += struct.pack("<I", 2) + b"ab"
    payload += struct.pack("<I", 2) + struct.pack("<II", 1, 2)
    payload += struct.pack("<dd", 1.5, -2.0)
    with open(path, "wb") as fh:
        fh.write(payload)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded["ab"], [[1.5, -2.0]])
    save_checkpoint(loaded, path)
    with open(path, "rb") as fh:
        assert fh.read() == payload


def test_every_strict_prefix_of_a_checkpoint_raises_naming_it(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "store.lzp"
    save_checkpoint(ParamStore({"w": rng.normal(size=(2, 3)), "b": rng.normal(size=2),
                                "scalar": np.asarray(1.5)}), path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.lzp"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError) as err:
            load_checkpoint(cut)
        assert str(err.value).startswith(f"{cut}: ")
    cut.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match=r"1 trailing bytes"):
        load_checkpoint(cut)


def test_a_store_holds_read_only_views_of_one_flat_array(tmp_path):
    rng = np.random.default_rng(6)
    values = {"w": rng.normal(size=(2, 3)), "txt.e": rng.normal(size=(4,)),
              "b": rng.normal(size=2), "scalar": np.asarray(1.5)}
    store = ParamStore(values, frozen=["txt.e"])
    # Trainable tensors first, frozen last, each in the order given.
    assert store.names() == ["w", "b", "scalar", "txt.e"]
    flat = store["w"].base
    assert flat.shape == (13,) and flat.flags.c_contiguous
    assert np.array_equal(flat, np.concatenate([values[n].ravel() for n in store.names()]))
    for name in store.names():
        assert store[name].base is flat and np.array_equal(store[name], values[name])
        with pytest.raises(ValueError, match="read-only"):
            store[name][...] = 0.0
    copied = snapshot(store)
    assert copied.names() == store.names() and copied.frozen == store.frozen
    assert not any(np.shares_memory(copied[n], flat) for n in store.names())
    view = store["b"]
    store.descend(1.0, np.full(9, 2.0))
    assert np.array_equal(view, values["b"] - 2.0) and np.array_equal(copied["b"], values["b"])

    # The layout leaves checkpoint bytes as the tensors alone give them, for
    # a fresh store and for one loaded from a checkpoint.
    want, got = tmp_path / "want.lzp", tmp_path / "got.lzp"
    save_checkpoint({n: store[n].copy() for n in store.names()}, want)
    save_checkpoint(store, got)
    assert got.read_bytes() == want.read_bytes()
    loaded = ParamStore(load_checkpoint(got), frozen=["txt.e"])
    save_checkpoint(loaded, got)
    assert got.read_bytes() == want.read_bytes()


def test_param_store_freezing():
    store = ParamStore({"w": np.ones(2), "txt.w": np.ones(2)}, frozen=["txt.w"])
    assert store.trainable_names() == ["w"]
    assert store.frozen == {"txt.w"}
    dup = snapshot(store)
    dup.descend(1.0, np.ones(1 * 2))
    assert np.array_equal(dup["w"], np.zeros(2)) and np.array_equal(store["w"], np.ones(2))


def test_derive_seed_is_stable_and_salted():
    assert derive_seed(0, "slots") == derive_seed(0, "slots")
    assert derive_seed(0, "slots") != derive_seed(0, "captions")
    assert derive_seed(0, "slots", 1) != derive_seed(0, "slots", 2)
    # Frozen value guards against cross-process drift.
    assert derive_seed(123, "slots", 0) == 3921341953


# ----------------------------------------------------------------------
# Finiteness checks and leaf binding

def test_finite_entries_whose_sum_overflows_pass_every_check():
    big = [1e308, 1e308]
    store = ParamStore({"w": big})
    g = Graph()
    w = g.parameter("w", store["w"])
    x = g.input((2,), "x")
    scaled = g.multiply(w, x)
    g.bind({x: big})
    g.bind({x: [1.0, 1.0]})
    assert np.array_equal(g.evaluate(scaled), big)


def test_a_checked_array_cannot_be_written_after_its_check():
    # Every call reads a leaf's build-time array untested, so no write may
    # reach one.
    w = np.zeros(2)
    store = ParamStore({"w": w})
    g = Graph()
    c = g.constant(store["w"])
    out = g.sum(g.affine(c, 1.0, 1.0))
    w[0] = -np.inf
    for held in (store["w"], g.evaluate(c)):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = -np.inf
    assert g.evaluate(out) == 2.0
    x = np.ones(2)
    d = g.constant(x)
    x[1] = np.nan
    assert np.array_equal(g.evaluate(d), [1.0, 1.0])
    y = np.ones(2)
    view = y.view()
    view.flags.writeable = False
    assert not np.shares_memory(ParamStore({"v": view})["v"], y)
    # A graph keeps a read-only array as it is; a store copies it into its
    # own flat array.
    ready = np.ones(2)
    ready.flags.writeable = False
    assert g.evaluate(g.constant(ready)) is ready
    assert g.evaluate(g.constant(ready.reshape(1, 2))).base is ready
    assert not np.shares_memory(ParamStore({"r": ready})["r"], ready)


@pytest.mark.parametrize("bad", [[1.0, np.nan], [np.inf, 1.0], [np.inf, -np.inf]])
def test_non_finite_entries_are_caught_by_every_check(bad):
    with pytest.raises(ValueError, match="non-finite"):
        ParamStore({"w": bad})
    g = Graph()
    with pytest.raises(ValueError, match="non-finite"):
        g.constant(bad)
    x = g.input((2,), "x")
    with pytest.raises(ValueError, match="leaf x got non-finite"):
        g.bind({x: bad})
    # A node whose value is bad: 1/1 = 1, 0/0 = nan and +-1/0 = +-inf.
    bad = np.array(bad)
    y = g.parameter("y", np.where(np.isnan(bad), 0.0, np.sign(bad)))
    out = g.divide(y, x)
    g.bind({x: np.isfinite(bad).astype(float)})
    with pytest.raises(EvaluationError, match=f"node {out.name}$"):
        g.evaluate(out)


def test_divergence_names_the_first_bad_node_after_an_overflowing_sum():
    # wide has finite entries whose sum overflows; over is the first node
    # with a non-finite entry, and worse follows it.
    g = Graph()
    big = g.parameter("big", [1e308, 1e308])
    wide = g.affine(big, 1.0, 0.0)
    over = g.add(wide, wide)
    worse = g.sum(g.sqrt(over))
    for run in (lambda: g.evaluate(worse), lambda: g.gradient(worse)):
        with pytest.raises(EvaluationError) as err:
            run()
        assert str(err.value) == f"non-finite value in node {over.name}"


def test_bind_checks_each_value_and_names_its_leaf():
    g = Graph()
    w = g.parameter("w", np.ones((2, 3)))
    x = g.input((3,), "x")
    out = g.sum(g.multiply(w, x))
    with pytest.raises(ShapeError, match="leaf x has shape \\(3,\\), got \\(2, 3\\)"):
        g.bind({x: np.ones((2, 3))})
    with pytest.raises(ValueError, match="leaf x got non-finite entries"):
        g.bind({x: [0.0, np.nan, 1.0]})
    # A parameter or constant keeps its build-time value.
    for leaf in (w, out, g.constant(1.0)):
        with pytest.raises(ValueError, match=f"bind: {leaf.name} is not an input of this graph"):
            g.bind({leaf: np.ones(leaf.shape)})
    with pytest.raises(ValueError, match="input x is not bound"):
        g.evaluate(out)
    frame = g.bind({x: [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError, match="leaf x is already bound in this frame"):
        g.bind({x: [1.0, 2.0, 3.0]}, frame=frame)
    assert g.evaluate(out, frame=frame) == 12.0
    g.constant(0.0)
    with pytest.raises(ValueError, match="before nodes were added"):
        g.evaluate(out, frame=frame)


def test_frames_of_two_bindings_never_read_each_other():
    def build(x0=None):
        g = Graph()
        w = g.parameter("w", [0.5, -1.0, 2.0])
        x = g.input((3,), "x") if x0 is None else g.constant(x0)
        hidden = g.tanh(g.multiply(w, x))
        return g, x, hidden, g.sum(g.sigmoid(hidden))

    a, b = [1.0, 2.0, 3.0], [-2.0, 0.5, 1.0]
    g, x, hidden, total = build()
    frame_a = g.bind({x: a})
    g.evaluate(hidden, frame=frame_a)
    frame_b = g.bind({x: b})
    got_b = g.gradient(total, frame=frame_b)
    got_a = g.gradient(total, frame=frame_a)
    for x0, frame, got in ((a, frame_a, got_a), (b, frame_b, got_b)):
        fresh, *_, fresh_total = build(x0)
        want = fresh.gradient(fresh_total)
        assert frame.values[total.index] == fresh.evaluate(fresh_total)
        assert got.gradients["w"].tobytes() == want.gradients["w"].tobytes()
    # The latest binding is the graph's current one.
    assert g.evaluate(total) == frame_b.values[total.index]
    assert g.gradient(total).gradients["w"].tobytes() == got_b.gradients["w"].tobytes()


def test_a_bound_selection_matrix_picks_rows_as_gather_does():
    # Each row selects one row of the table, and no row is selected twice,
    # so the product and its gradient add only zeros to each value.
    rng = np.random.default_rng(3)
    table = rng.normal(size=(5, 3))
    rows = [4, 0, 2]
    g = Graph()
    t = g.parameter("t", table)
    select = g.input((3, 5), "select")
    picked = g.matmul(select, t)
    by_matrix = g.sum(g.multiply(picked, g.tanh(picked)))
    h = Graph()
    u = h.parameter("u", table[rows])
    by_index = h.sum(h.multiply(u, h.tanh(u)))
    g.bind({select: np.eye(5)[rows]})
    got, want = g.gradient(by_matrix), h.gradient(by_index)
    scattered = np.zeros_like(table)
    scattered[rows] = want.gradients["u"]
    assert g.evaluate(by_matrix) == h.evaluate(by_index)
    assert got.gradients["t"].tobytes() == scattered.tobytes()
    assert g.finite_difference_check(by_matrix).passed


def test_ancestor_orders_are_remembered_until_a_node_is_added():
    g = Graph()
    x = g.parameter("x", [1.0, 2.0])
    y = g.tanh(x)
    first = g._order((y.index,))
    assert g._order((y.index,)) is first
    z = g.sum(y)
    assert g._order((y.index,)) is not first
    # tanh can hide x, so x is tested as well as the output.
    assert g._order((z.index,)) == ([x.index, y.index, z.index], {x.index, z.index})


# ----------------------------------------------------------------------
# Where finiteness is checked: the nodes no node of the order carries, that
# is, reads outside the places an op can hide and has output entries.

def _bad(g, value):
    """A node whose first entry is value (inf, -inf or nan) and whose
    others are 1: num / den with a zero first denominator."""
    num = 0.0 if np.isnan(value) else np.sign(value)
    return g.divide(g.constant([num, 1.0, 1.0]), g.constant([0.0, 1.0, 1.0]))


def _ok(g):
    return g.constant([0.5, -2.0, 3.0])


def _operand(node, k):
    """A handle to node's operand k, for a node no Graph method returns."""
    g = node.graph
    i = g._parents[node.index][k]
    return Node(g, i, g._shapes[i], g._names[i])


# (op, operand, bad value, builder): the builder returns the node that
# makes the bad value and the node that hides it.
_HIDDEN = [
    ("minimum", 0, np.inf, lambda g, b: g.minimum(b, _ok(g))),
    ("minimum", 1, np.inf, lambda g, b: g.minimum(_ok(g), b)),
    ("maximum", 0, -np.inf, lambda g, b: g.maximum(b, _ok(g))),
    ("maximum", 1, -np.inf, lambda g, b: g.maximum(_ok(g), b)),
    ("slice", 0, np.nan, lambda g, b: g.slice(b, 1, 3)),
    ("tanh", 0, np.inf, lambda g, b: g.tanh(b)),
    ("gelu_tanh", 0, np.inf, lambda g, b: _operand(g.gelu(b), 1)),
    ("sigmoid", 0, -np.inf, lambda g, b: g.sigmoid(b)),
    ("softmax", 0, -np.inf, lambda g, b: g.softmax(b, axis=0)),
    ("divide", 1, np.inf, lambda g, b: g.divide(_ok(g), b)),
]


@pytest.mark.parametrize("op, operand, value, build", _HIDDEN,
                         ids=[f"{c[0]}-{c[1]}" for c in _HIDDEN])
def test_a_value_an_op_hides_still_names_the_node_that_made_it(op, operand, value, build):
    g = Graph()
    bad = _bad(g, value)
    hiding = build(g, bad)
    assert g._ops[hiding.index] == op and operand in _HIDING_OPS[op]
    total = g.sum(g.multiply(hiding, g.parameter("w", [2.0] * hiding.shape[0])))
    first, values = run_every_node(g, [total], g.bind())
    assert first == bad.name and np.isfinite(values[hiding.index]).all()
    for run in (lambda: g.evaluate(total), lambda: g.gradient(total)):
        with pytest.raises(EvaluationError) as err:
            run()
        assert str(err.value) == f"non-finite value in node {bad.name}"


def test_a_standard_deviation_layer_norm_hides_names_its_statistics_node():
    # The squares of +-1e200 overflow, so the standard deviation is inf
    # and every normalized entry is 0.
    g = Graph()
    normed = _ln(g, g.constant([1e200, -1e200, 0.0]))
    stats = normed.index - 1
    total = g.sum(normed)
    first, values = run_every_node(g, [total], g.bind())
    assert first == f"layer_norm_stats#{stats}"
    assert np.array_equal(values[normed.index], [0.0, 0.0, 0.0])
    for run in (lambda: g.evaluate(total), lambda: g.gradient(total)):
        with pytest.raises(EvaluationError, match=f"node layer_norm_stats#{stats}$"):
            run()


def test_a_value_a_hiding_op_and_a_carrying_op_both_read_is_not_tested():
    # gelu_tanh can hide its operand, but gelu reads the same value and
    # carries it: gelu(inf) is inf and gelu(-inf) is nan.
    for value in (np.inf, -np.inf, np.nan):
        g = Graph()
        bad = _bad(g, value)
        gelu = g.gelu(bad)
        total = g.sum(g.multiply(gelu, g.parameter("w", [2.0, 2.0, 2.0])))
        order, checked = g._order((total.index,))
        assert gelu.index - 1 in order and g._ops[gelu.index - 1] == "gelu_tanh"
        assert total.index in checked
        assert checked.isdisjoint((bad.index, gelu.index - 1, gelu.index))
        first, values = run_every_node(g, [total], g.bind())
        assert first == bad.name and not np.isfinite(values[gelu.index]).all()
        for run in (lambda: g.evaluate(total), lambda: g.gradient(total)):
            with pytest.raises(EvaluationError) as err:
                run()
            assert str(err.value) == f"non-finite value in node {bad.name}"


def test_an_op_with_an_empty_output_hides_every_operand_entry():
    g = Graph()
    bad = _bad(g, np.inf)
    empty = g.matmul(g.reshape(bad, (1, 3)), g.constant(np.zeros((3, 0))))
    total = g.sum(g.add(g.constant([1.0]), g.sum(empty)))
    with pytest.raises(EvaluationError, match=f"node {bad.name}$"):
        g.evaluate(total)


def _x(*shape, low=-2.0, high=2.0):
    return np.random.default_rng(len(shape) + sum(shape)).uniform(low, high, size=shape)


# Every Graph method that registers an op, on operand values that make a
# non-finite entry hardest to carry: all-zero partners, where only
# inf * 0 = nan carries it, and affine's scale 0.
_OP_CASES = {
    "linear": [lambda g: g.linear(g.constant(_x(2, 3)), g.constant(np.zeros((3, 4))),
                                  g.constant(np.zeros(4))),
               lambda g: g.linear(g.constant(np.zeros((2, 2, 3))), g.constant(_x(3, 4)),
                                  g.constant(_x(4)))],
    "matmul": [lambda g: g.matmul(g.constant(_x(2, 3)), g.constant(np.zeros((3, 4)))),
               lambda g: g.matmul(g.constant(np.zeros((2, 3))), g.constant(_x(3, 4))),
               lambda g: g.matmul(g.constant(_x(2, 2, 3)), g.constant(np.zeros((2, 3, 2))))],
    "transpose": [lambda g: g.transpose(g.constant(_x(2, 3))),
                  lambda g: g.transpose(g.constant(_x(2, 3, 4)), (2, 0, 1))],
    "add": [lambda g: g.add(g.constant(_x(2, 3)), g.constant(_x(3)))],
    "subtract": [lambda g: g.subtract(g.constant(_x(2, 3)), g.constant(_x(3)))],
    "multiply": [lambda g: g.multiply(g.constant(np.zeros((2, 3))), g.constant(np.zeros(3)))],
    "divide": [lambda g: g.divide(g.constant(np.zeros((2, 3))), g.constant(_x(3)))],
    "minimum": [lambda g: g.minimum(g.constant(_x(2, 3)), g.constant(_x(3)))],
    "maximum": [lambda g: g.maximum(g.constant(_x(2, 3)), g.constant(_x(3)))],
    "affine": [lambda g: g.affine(g.constant(_x(2, 3)), 0.0, 1.0)],
    "absolute": [lambda g: g.absolute(g.constant(_x(2, 3)))],
    "sqrt": [lambda g: g.sqrt(g.constant(_x(2, 3, low=0.5)))],
    "sigmoid": [lambda g: g.sigmoid(g.constant(_x(2, 3)))],
    "tanh": [lambda g: g.tanh(g.constant(_x(2, 3)))],
    "gelu": [lambda g: g.gelu(g.constant(_x(2, 3)))],
    "sum": [lambda g: g.sum(g.constant(_x(2, 3))),
            lambda g: g.sum(g.constant(_x(2, 3)), axis=0)],
    "mean": [lambda g: g.mean(g.constant(_x(2, 3)), axis=-1)],
    "softmax": [lambda g: g.softmax(g.constant(_x(2, 3)), axis=-1)],
    "log_softmax": [lambda g: g.log_softmax(g.constant(_x(2, 3)), axis=-1)],
    "layer_norm": [lambda g: _ln(g, g.constant(_x(2, 3))),
                   lambda g: g.layer_norm(g.constant(_x(2, 3)), g.constant(np.zeros(3)),
                                          g.constant(np.zeros(3)))],
    "reshape": [lambda g: g.reshape(g.constant(_x(2, 3)), (3, 2))],
    "concat": [lambda g: g.concat([g.constant(_x(2, 3)), g.constant(_x(1, 3))], axis=0)],
    "slice": [lambda g: g.slice(g.constant(_x(2, 3)), 0, 1, axis=0)],
}


def test_the_op_cases_cover_every_method_that_registers_an_op():
    makers = {name for name, f in vars(Graph).items()
              if inspect.isfunction(f) and not name.startswith("_")
              and inspect.signature(f).return_annotation == "Node"}
    assert makers - {"parameter", "constant", "input"} == set(_OP_CASES)


@pytest.mark.parametrize("method, build",
                         [(m, b) for m, builds in _OP_CASES.items() for b in builds],
                         ids=[f"{m}-{k}" for m, builds in _OP_CASES.items()
                              for k in range(len(builds))])
def test_every_op_hides_a_non_finite_operand_only_where_the_hiding_set_says(method, build):
    g = Graph()
    out = build(g)
    first, values = run_every_node(g, [out], g.bind())
    assert first is None
    for i, parents in enumerate(g._parents):
        for k, p in enumerate(parents):
            if k in _HIDING_OPS.get(g._ops[i], ()):
                continue
            for entry in range(values[p].size):
                for bad in (np.inf, -np.inf, np.nan):
                    operand = values[p].copy()
                    operand.flat[entry] = bad
                    with np.errstate(all="ignore"):
                        got = g._forward[i](values[:p] + [operand] + values[p + 1:])
                    assert not np.isfinite(got).all(), (g._names[i], k, entry, bad)


_UNARY = ("absolute", "sqrt", "sigmoid", "tanh", "gelu")
_BINARY = ("add", "subtract", "multiply", "divide", "minimum", "maximum")


def _grow(g, pool, kind, a, b):
    """One (2, 3) node of kind from pool nodes a and b."""
    x, y = pool[a % len(pool)], pool[b % len(pool)]
    if kind in _UNARY:
        return getattr(g, kind)(x)
    if kind in _BINARY:
        return getattr(g, kind)(x, y)
    if kind == "affine":
        return g.affine(x, (0.0, -1.5, 2.0)[b % 3], 0.25)
    if kind in ("softmax", "log_softmax"):
        return getattr(g, kind)(x, axis=b % 2)
    if kind == "layer_norm":
        return _ln(g, x)
    if kind == "affine_layer_norm":
        return g.layer_norm(x, g.sum(y, axis=0), g.mean(y, axis=0))
    if kind == "linear":
        return g.linear(x, g.constant(np.eye(3) * (b % 3 - 1)), g.sum(y, axis=0))
    if kind == "rows":
        return g.concat([g.slice(x, 0, 1, axis=0), g.slice(y, 1, 2, axis=0)], axis=0)
    if kind == "transpose":
        return g.reshape(g.transpose(x), (2, 3))
    if kind == "matmul":
        return g.matmul(x, g.constant(np.eye(3) * (b % 3 - 1)))
    if kind == "sum":
        return g.add(x, g.sum(y, axis=0))
    return g.add(x, g.mean(y))


@settings(max_examples=300, deadline=None)
@given(leaves=st.lists(st.floats(-4.0, 4.0), min_size=12, max_size=12),
       steps=st.lists(st.tuples(st.sampled_from(_UNARY + _BINARY + (
           "affine", "softmax", "log_softmax", "layer_norm", "affine_layer_norm", "rows",
           "transpose", "matmul", "linear", "sum", "mean")), st.integers(0, 99),
           st.integers(0, 99)),
           min_size=1, max_size=10),
       inject=st.integers(0, 10), zero=st.integers(0, 6), early=st.integers(0, 99))
def test_random_graphs_name_the_node_a_check_after_every_node_names(leaves, steps, inject,
                                                                    zero, early):
    # A divide by the input den makes inf or nan where den is zero (zero < 6
    # picks the entry; 6 injects nothing); other nodes may overflow too.
    g = Graph()
    pool = [g.parameter("p", np.reshape(leaves[:6], (2, 3))),
            g.parameter("q", np.reshape(leaves[6:], (2, 3)))]
    den = g.input((2, 3), "den")
    for n, (kind, a, b) in enumerate(steps):
        if n == inject % len(steps):
            pool.append(g.divide(pool[a % len(pool)], den))
        pool.append(_grow(g, pool, kind, a, b))
    total = g.sum(pool[-1])
    first_part = pool[early % len(pool)]
    den_value = np.ones(6)
    den_value[zero:zero + 1] = 0.0
    den_value = den_value.reshape(2, 3)

    for outputs in ([first_part], [total]):
        want, values = run_every_node(g, outputs, g.bind({den: den_value}))
        frame = g.bind({den: den_value})
        if want is None:
            got = g.evaluate(outputs, frame=frame)
            assert all(x.tobytes() == values[n.index].tobytes()
                       for x, n in zip(got, outputs))
            continue
        with pytest.raises(EvaluationError) as err:
            g.evaluate(outputs, frame=frame)
        assert str(err.value) == f"non-finite value in node {want}"
        # The frame keeps the values up to the named node, as a check after
        # every node leaves it.
        named = g._names.index(want)
        assert all((v is None) == (i > named or values[i] is None)
                   for i, v in enumerate(frame.values) if g._forward[i] is not None)

    # Part of the graph first, then the gradient over the same frame.
    frame = g.bind({den: den_value})
    want = run_every_node(g, [first_part], frame)[0] or run_every_node(g, [total], frame)[0]
    with np.errstate(all="ignore"):
        try:
            g.evaluate(first_part, frame=frame)
            g.gradient(total, frame=frame)
            got = None
        except EvaluationError as exc:
            got = str(exc)
    assert got == (None if want is None else f"non-finite value in node {want}")
