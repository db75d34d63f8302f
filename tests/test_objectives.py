"""Objectives: box geometry, matching, contrastive losses, total loss."""

import gc
import itertools
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slotnav import encoder, objectives
from slotnav.autodiff import Graph
from slotnav.encoder import Binding, EncoderConfig, encode_text, image_embedding, init_params
from slotnav.fixtures import training_images, training_records
from slotnav.harness import TrainConfig, dataset_examples
from slotnav.objectives import (
    Annotation,
    AnnotationSet,
    Assignment,
    LossReport,
    LossWeights,
    TrainExample,
    concat_captions,
    format_loss_line,
    hungarian,
    pairwise_cost,
    total_loss_graph,
    _giou_columns,
    _multilabel_node,
    _onehot,
    _symmetric_ce,
)

from _oracles import (brute_force_assignment, exact_sum_assignment, giou, iou, l1_box,
                      random_box, snapshot, with_values)


# ----------------------------------------------------------------------
# GIoU and L1, through pairwise_cost


def literal_cost(a, b):
    """pairwise_cost of one pair under the literal convention: L1 plus GIoU."""
    return pairwise_cost([a], [b], literal_giou_cost=True)[0, 0]


def test_giou_worked_examples():
    assert literal_cost((0, 0, 2, 2), (0, 0, 2, 2)) == pytest.approx(0 + 1.0, abs=1e-12)
    # L1 4; inter 1, union 7, hull 9.
    assert literal_cost((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(4 + 1 / 7 - 2 / 9,
                                                                     abs=1e-12)
    # L1 8; disjoint: union 2, hull 9.
    assert literal_cost((0, 0, 1, 1), (2, 2, 3, 3)) == pytest.approx(8 + 0 - 7 / 9,
                                                                     abs=1e-12)


def test_giou_degenerate_conventions():
    assert literal_cost((0.2, 0.2, 0.2, 0.2), (0.2, 0.2, 0.2, 0.2)) == 0.0 + 1.0
    assert literal_cost((0, 0, 0, 0), (1, 1, 1, 1)) == 4.0 - 1.0
    with pytest.raises(ValueError):
        literal_cost((1, 0, 0, 1), (0, 0, 1, 1))


def test_giou_properties_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        a, b = random_box(rng), random_box(rng)
        g = giou(a, b)
        assert literal_cost(a, b) == l1_box(a, b) + g
        assert -1.0 < g <= 1.0
        assert g <= iou(a, b) + 1e-12
        assert g == pytest.approx(giou(b, a), abs=1e-12)


def test_giou_equals_iou_iff_hull_equals_union():
    # Stacked boxes sharing full width: hull == union exactly.
    a, b = (0.0, 0.0, 1.0, 0.5), (0.0, 0.5, 1.0, 1.0)
    assert literal_cost(a, b) - l1_box(a, b) == pytest.approx(iou(a, b), abs=1e-15)
    # Offset boxes: hull strictly larger, giou strictly smaller.
    c, d = (0.0, 0.0, 0.5, 0.5), (0.6, 0.6, 1.0, 1.0)
    assert literal_cost(c, d) - l1_box(c, d) < iou(c, d) - 1e-9


def test_l1_box():
    # Coincident boxes: L1 0 and GIoU 1, so the minimizing cost is 0.
    assert pairwise_cost([(0, 0, 1, 1)], [(0, 0, 1, 1)])[0, 0] == 0.0
    assert l1_box((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(4.0, abs=1e-12)
    rng = np.random.default_rng(1)
    a, b = random_box(rng), random_box(rng)
    assert l1_box(a, b) == pytest.approx(l1_box(b, a), abs=0)
    assert pairwise_cost([a], [b]).tobytes() == pairwise_cost([b], [a]).tobytes()


def test_graph_giou_matches_scalar_giou():
    rng = np.random.default_rng(2)
    pred = np.stack([random_box(rng) for _ in range(6)])
    gt = np.stack([random_box(rng) for _ in range(6)])
    g = Graph()
    column = g.evaluate(_giou_columns(g, g.constant(pred), g.constant(gt))).reshape(-1)
    expected = [giou(pred[i], gt[i]) for i in range(6)]
    assert np.allclose(column, expected, atol=1e-12)


# ----------------------------------------------------------------------
# Matching


def test_pairwise_cost():
    box = (0.1, 0.1, 0.4, 0.5)
    assert pairwise_cost([box], [box])[0, 0] == pytest.approx(0.0, abs=1e-12)
    cost = pairwise_cost([(0, 0, 2, 2)], [(1, 1, 3, 3)])
    assert cost[0, 0] == pytest.approx(4 + 1 + 5 / 63, abs=1e-9)
    rng = np.random.default_rng(3)
    pred = [random_box(rng) for _ in range(4)]
    gt = [random_box(rng) for _ in range(3)]
    matrix = pairwise_cost(pred, gt)
    assert matrix.shape == (4, 3)
    assert np.all(matrix >= 0.0)
    literal = pairwise_cost(pred, gt, literal_giou_cost=True)
    expected_shift = 1.0 - 2.0 * np.array([[giou(p, q) for q in gt] for p in pred])
    assert np.allclose(matrix - literal, expected_shift, atol=1e-12)


def _scalar_cost(pred, gt, literal):
    return np.array([[l1_box(p, q) + (giou(p, q) if literal else 1.0 - giou(p, q))
                      for q in gt] for p in pred]).reshape(len(pred), len(gt))


def test_pairwise_cost_equals_the_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(9)
    cases = [(np.stack([random_box(rng, scale=10.0 ** rng.integers(-6, 6))
                        for _ in range(rng.integers(1, 6))]),
              np.stack([random_box(rng, scale=10.0 ** rng.integers(-6, 6))
                        for _ in range(rng.integers(1, 6))]))
             for _ in range(300)]
    # Degenerate: a coincident zero-area pair (union 0, hull 0); distinct
    # boxes with union 0 (hull > 0); a zero-width box against a real one.
    point, segment = [0.2, 0.2, 0.2, 0.2], [0.5, 0.1, 0.5, 0.9]
    cases.append((np.array([point, segment, [0.0, 0.0, 1.0, 1.0]]),
                  np.array([point, segment, [0.3, 0.3, 0.3, 0.3]])))
    for pred, gt in cases:
        for literal in (False, True):
            got = pairwise_cost(pred, gt, literal_giou_cost=literal)
            assert got.shape == (len(pred), len(gt))
            assert got.tobytes() == _scalar_cost(pred, gt, literal).tobytes()


@pytest.mark.parametrize("bad", [[0.5, 0.0, 0.2, 1.0], [0.0, 0.5, 1.0, 0.2],
                                 [0.0, np.nan, 1.0, 1.0], [0.0, 0.0, 1.0],
                                 [0.0, 0.0, 1.0, 1.0, 1.0]])
def test_pairwise_cost_rejects_a_bad_box_in_either_argument(bad):
    good = [[0.0, 0.0, 1.0, 1.0], [0.1, 0.1, 0.4, 0.5]]
    for pred, gt in (([bad], good), (good, [bad]), (good + [bad], good), (good, [bad] + good)):
        with pytest.raises(ValueError):
            pairwise_cost(pred, gt)


def test_hungarian_diagonal_optimum():
    cost = np.full((3, 3), 100.0)
    np.fill_diagonal(cost, 0.0)
    out = hungarian([cost])[0]
    assert out.pairs == ((0, 0), (1, 1), (2, 2))
    assert out.cost == 0.0
    assert out.unmatched_slots == ()


def test_hungarian_two_by_two_example():
    out = hungarian([[[1, 2], [3, 0]]])[0]
    assert out.pairs == ((0, 0), (1, 1))
    assert out.cost == pytest.approx(1.0)


def test_hungarian_rectangular_example():
    out = hungarian([[[5, 1], [2, 4], [3, 3]]])[0]
    assert out.pairs == ((0, 1), (1, 0))
    assert out.unmatched_slots == (2,)
    assert out.cost == pytest.approx(3.0)


def test_hungarian_tie_break_is_lexicographic():
    out = hungarian([np.ones((3, 3))])[0]
    assert out.pairs == ((0, 0), (1, 1), (2, 2))
    out = hungarian([[[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]])[0]
    assert out.pairs == ((0, 0), (1, 1))
    assert out.unmatched_slots == (2,)


def test_hungarian_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    for trial in range(150):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        if trial % 3 == 0:
            cost = rng.integers(0, 4, size=(k, n)).astype(float)
        elif trial % 3 == 1:
            cost = rng.random((k, n))
        else:
            cost = rng.normal(size=(k, n))
        expected_total, expected_pairs = brute_force_assignment(cost)
        out = hungarian([cost])[0]
        assert out.cost == expected_total, f"trial {trial}"
        assert out.pairs == expected_pairs, f"trial {trial}"
        assert len(out.pairs) == min(k, n)


def test_hungarian_matches_brute_force_on_near_ties():
    # Optima that tie, or differ only in the last bits of a row-order sum.
    # 3e-10 and 1e-10 differ by less than an absolute 1e-9.
    out = hungarian([[[3e-10, 0.1, 0.7, 1e-10, 1e-10]]])[0]
    assert out.pairs == ((0, 3),)
    assert out.cost == 1e-10
    pools = ([0.1, 0.2, 0.3, 0.6, 0.7, 1.0],
             [0.1, 0.2, 0.3, 0.6, 0.7, 1.0, 1e-10, 3e-10],
             [1e16, -1e16, 0.5, 1.0, 2.0, 3.0])
    rng = np.random.default_rng(8)
    for trial in range(1800):
        k, n = (int(v) for v in rng.integers(1, 6, size=2))
        cost = rng.choice(pools[trial % 3], size=(k, n))
        expected_total, expected_pairs = brute_force_assignment(cost)
        out = hungarian([cost])[0]
        assert out.pairs == expected_pairs, f"trial {trial}: {cost.tolist()}"
        assert np.float64(out.cost).tobytes() == np.float64(expected_total).tobytes(), \
            f"trial {trial}"
    # Shapes at the enumeration bound match enumeration bit for bit; the
    # first shapes past it take the exact-sum solver.
    at_bound = ((6, 6), (10, 3), (3, 10), (27, 2))
    past_bound = ((7, 4), (4, 7), (11, 3))
    for trial, ((k, n), pool) in enumerate(itertools.product(at_bound * 5, pools)):
        cost = rng.choice(pool, size=(k, n))
        expected_total, expected_pairs = brute_force_assignment(cost)
        out = hungarian([cost])[0]
        assert out.pairs == expected_pairs, f"{k}x{n} trial {trial}: {cost.tolist()}"
        assert np.float64(out.cost).tobytes() == np.float64(expected_total).tobytes(), \
            f"{k}x{n} trial {trial}"
    for trial, ((k, n), pool) in enumerate(itertools.product(past_bound * 5, pools)):
        cost = rng.choice(pool, size=(k, n))
        assert hungarian([cost])[0].pairs == exact_sum_assignment(cost), \
            f"{k}x{n} trial {trial}: {cost.tolist()}"


# Costs from small pools tie often; the third pool's sums round.
_COST_POOLS = ([0.0, 1.0, 2.0], [0.1, 0.2, 0.3, 0.6, 0.7, 1.0, 1e-10, 3e-10],
               [1e16, -1e16, 0.5, 1.0, 2.0, 3.0])


@st.composite
def _cost_blocks(draw):
    """Blocks of a few (K, N) shapes, several of each, with tying costs."""
    shapes = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                           min_size=1, max_size=3))
    pool = draw(st.sampled_from(_COST_POOLS))
    blocks = []
    for _ in range(draw(st.integers(1, 10))):
        k, n = draw(st.sampled_from(shapes))
        blocks.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=k * n,
                                             max_size=k * n))).reshape(k, n))
    return blocks


@settings(max_examples=150, deadline=None)
@given(_cost_blocks())
def test_blocks_matched_together_get_the_pairs_and_cost_each_gets_alone(blocks):
    together = hungarian(blocks)
    assert len(together) == len(blocks)
    for cost, got in zip(blocks, together):
        alone = hungarian([cost])[0]
        assert got == alone
        assert np.float64(got.cost).tobytes() == np.float64(alone.cost).tobytes()
        expected_total, expected_pairs = brute_force_assignment(cost)
        assert got.pairs == expected_pairs
        assert np.float64(got.cost).tobytes() == np.float64(expected_total).tobytes()


def test_hungarian_edge_shapes_and_non_finite_costs():
    out = hungarian([np.zeros((3, 0))])[0]
    assert (out.pairs, out.unmatched_slots, out.cost) == ((), (0, 1, 2), 0.0)
    out = hungarian([np.zeros((0, 3))])[0]
    assert (out.pairs, out.unmatched_slots, out.cost) == ((), (), 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        cost = np.ones((2, 3))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="^costs must be finite$"):
            hungarian([cost])[0]
    # Wide and tall shapes alike, on both sides of the enumeration bound.
    for k, n in ((1, 63), (1, 64), (3, 200), (200, 3)):
        out = hungarian([np.ones((k, n))])[0]
        assert out.pairs == tuple((i, i) for i in range(min(k, n)))
        assert out.unmatched_slots == tuple(range(min(k, n), k))


def test_hungarian_exact_sum_path_matches_brute_force(monkeypatch):
    # The gate's matrices through the polynomial solver alone.  Small
    # integers add exactly in any order, so their many ties must break as
    # enumeration breaks them; tall shapes leave rows out.  On near ties
    # the reference is enumeration with exact sums.
    monkeypatch.setattr(objectives, "_ENUMERATED_ASSIGNMENTS", 0)
    out = hungarian([[[3e-10, 0.1, 0.7, 1e-10, 1e-10]]])[0]
    assert (out.pairs, out.cost) == (((0, 3),), 1e-10)
    rng = np.random.default_rng(4)
    for trial in range(300):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        if trial % 3 == 0:
            cost = rng.integers(0, 4, size=(k, n)).astype(float)
        elif trial % 3 == 1:
            cost = rng.random((k, n))
        else:
            cost = rng.normal(size=(k, n))
        expected_total, expected_pairs = brute_force_assignment(cost)
        out = hungarian([cost])[0]
        assert out.pairs == expected_pairs, f"trial {trial}: {cost.tolist()}"
        assert out.cost == expected_total, f"trial {trial}"
    # Near ties, where row-order rounding and exact sums can disagree.
    pools = ([0.1, 0.2, 0.3, 0.6, 0.7, 1.0],
             [0.1, 0.2, 0.3, 0.6, 0.7, 1.0, 1e-10, 3e-10],
             [1e16, -1e16, 0.5, 1.0, 2.0, 3.0])
    for trial in range(600):
        k, n = (int(v) for v in rng.integers(1, 6, size=2))
        cost = rng.choice(pools[trial % 3], size=(k, n))
        assert hungarian([cost])[0].pairs == exact_sum_assignment(cost), \
            f"trial {trial}: {cost.tolist()}"


def test_hungarian_large_shapes_finish_in_bounded_time_and_memory():
    # A planted zero-cost matching among costs in [1, 2) is the one optimum;
    # these shapes have up to 5.5e17 assignments, far past enumeration.
    rng = np.random.default_rng(12)
    for k, n in ((10, 40), (4, 64), (64, 4), (10, 64)):
        cost = 1.0 + rng.random((k, n))
        rows = rng.permutation(k)[:min(k, n)]
        cols = rng.permutation(n)[:min(k, n)]
        cost[rows, cols] = 0.0
        tracemalloc.start()
        start = time.perf_counter()
        out = hungarian([cost])[0]
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert out.pairs == tuple(sorted(zip(rows.tolist(), cols.tolist())))
        assert out.cost == 0.0
        assert elapsed < 2.0, f"{k}x{n} took {elapsed:.2f}s"
        assert peak < 16e6, f"{k}x{n} peaked at {peak / 1e6:.1f} MB"


def test_assignment_rejects_duplicates():
    with pytest.raises(ValueError):
        Assignment(pairs=((0, 0), (0, 1)), unmatched_slots=(), cost=0.0)
    with pytest.raises(ValueError):
        Assignment(pairs=((0, 0), (1, 0)), unmatched_slots=(), cost=0.0)


# ----------------------------------------------------------------------
# Contrastive losses: the step graph's builders


def contrastive_loss(imgs, txts, tau=0.07):
    """The step graph's symmetric cross-entropy over these rows."""
    g = Graph()
    return float(g.evaluate(_symmetric_ce(g, g.constant(np.atleast_2d(imgs)),
                                          g.constant(np.atleast_2d(txts)), tau)))


def test_contrastive_loss_single_pair_is_zero():
    v = np.array([[1.0, 0.0, 0.0]])
    assert contrastive_loss(v, v, tau=1.0) == pytest.approx(0.0, abs=1e-12)


def test_contrastive_loss_orthonormal_pair():
    e = np.eye(2)
    expected = -np.log(np.e / (np.e + 1.0))
    assert contrastive_loss(e, e, tau=1.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.31326, abs=1e-5)


def test_contrastive_loss_permutation_invariant():
    rng = np.random.default_rng(5)
    imgs = rng.normal(size=(4, 8))
    imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
    txts = rng.normal(size=(4, 8))
    txts /= np.linalg.norm(txts, axis=1, keepdims=True)
    perm = [2, 0, 3, 1]
    base = contrastive_loss(imgs, txts)
    assert contrastive_loss(imgs[perm], txts[perm]) == pytest.approx(base, abs=1e-12)


def test_contrastive_loss_rewards_alignment():
    # Increase one matched cosine with everything else fixed: loss must drop.
    base = np.eye(3)
    txts = base.copy()
    imgs_far = np.array([[np.cos(1.2), np.sin(1.2), 0.0],
                         base[1], base[2]])
    imgs_near = np.array([[np.cos(0.3), np.sin(0.3), 0.0],
                          base[1], base[2]])
    far = contrastive_loss(imgs_far, txts, tau=0.5)
    near = contrastive_loss(imgs_near, txts, tau=0.5)
    assert 0.0 <= near < far


def test_concat_captions():
    assert concat_captions(["sofa"], np.random.default_rng(0)) == "sofa"
    assert concat_captions(["sofa", "lamp"], np.random.default_rng(3)) == "lamp. sofa"
    # Each call draws its order from the generator it is given, so calls on
    # one generator continue its stream.
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    for n in (3, 2, 4, 3):
        captions = [f"c{i}" for i in range(n)]
        assert concat_captions(captions, rng) == ". ".join(
            captions[i] for i in twin.permutation(n))
    with pytest.raises(ValueError):
        concat_captions([], np.random.default_rng(0))


def _identity_projection_store():
    cfg = EncoderConfig(max_tokens=4)
    store = with_values(init_params(cfg, seed=0), {"mc.proj.w": np.eye(cfg.slot_dim, cfg.dim),
                                                   "mc.proj.b": np.zeros(cfg.dim)})
    return cfg, store


def multilabel_loss(slots, texts, assignment, store, tau=0.07):
    """The step graph's multi-label term: the assignment's slots picked by a
    0/1 matrix, each scored against every text, its annotation the target."""
    g = Graph()
    rows = _onehot([i for i, _ in assignment.pairs], len(slots))
    matched = g.matmul(g.constant(rows), g.constant(slots))
    targets = g.constant(_onehot([j for _, j in assignment.pairs], len(texts)))
    node = _multilabel_node(g, Binding(g, store), matched,
                            g.constant(texts), targets, tau)
    return float(g.evaluate(node))


def test_multilabel_loss_single_annotation_is_zero():
    cfg, store = _identity_projection_store()
    slots = np.zeros((2, cfg.slot_dim))
    slots[0, 0] = 2.0
    texts = np.zeros((1, cfg.dim))
    texts[0, 0] = 1.0
    assignment = Assignment(pairs=((0, 0),), unmatched_slots=(1,), cost=0.0)
    assert multilabel_loss(slots, texts, assignment, store, tau=1.0) == \
        pytest.approx(0.0, abs=1e-12)


def test_multilabel_loss_orthogonal_distractor():
    cfg, store = _identity_projection_store()
    slots = np.zeros((2, cfg.slot_dim))
    slots[0, 0] = 3.0
    texts = np.zeros((2, cfg.dim))
    texts[0, 0] = 1.0
    texts[1, 1] = 1.0
    assignment = Assignment(pairs=((0, 0),), unmatched_slots=(1,), cost=0.0)
    assert multilabel_loss(slots, texts, assignment, store, tau=1.0) == \
        pytest.approx(-np.log(np.e / (np.e + 1.0)), abs=1e-12)


def test_multilabel_loss_ignores_unmatched_slots():
    cfg, store = _identity_projection_store()
    rng = np.random.default_rng(6)
    slots = rng.normal(size=(3, cfg.slot_dim))
    texts = rng.normal(size=(2, cfg.dim))
    texts /= np.linalg.norm(texts, axis=1, keepdims=True)
    assignment = Assignment(pairs=((0, 0), (1, 1)), unmatched_slots=(2,), cost=0.0)
    a = multilabel_loss(slots, texts, assignment, store)
    slots[2] = 0.0
    b = multilabel_loss(slots, texts, assignment, store)
    assert a == b


# ----------------------------------------------------------------------
# Total loss


TINY = EncoderConfig(patch_size=4, dim=8, slot_dim=8, num_slots=2, slot_iters=1,
                     heads=2, max_tokens=4, text_vocab=32, text_len=8)


def _tiny_batch(rng):
    def example(seed, captions):
        image = np.random.default_rng(seed).random((8, 8, 3))
        anns = tuple(Annotation(caption=c, box=random_box(np.random.default_rng(seed + 7)))
                     for c in captions)
        return TrainExample(image=image, annotations=AnnotationSet(anns))

    return [example(10, ["red sofa", "green lamp"]),
            example(11, ["wooden table", "white mirror"])]


@pytest.fixture(scope="module")
def tiny_setup():
    store = init_params(TINY, seed=2)
    return TINY, store, _tiny_batch(np.random.default_rng(0))


def test_total_loss_zero_weights(tiny_setup):
    cfg, store, batch = tiny_setup
    report = total_loss_graph(batch, store, LossWeights(alpha=0, beta=0, gamma=0, delta=0),
                              cfg, seed=1).report
    assert report.total == 0.0
    assert report.L_C > 0.0


def test_total_loss_weighted_identity(tiny_setup):
    cfg, store, batch = tiny_setup
    w = LossWeights(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0)
    report = total_loss_graph(batch, store, w, cfg, seed=1).report
    recombined = report.L_C + report.L_L1 + report.L_GIoU + report.L_MC
    assert abs(report.total - recombined) < 1e-12


def test_total_loss_doubling_delta_adds_l_mc(tiny_setup):
    cfg, store, batch = tiny_setup
    base = total_loss_graph(batch, store, LossWeights(), cfg, seed=4).report
    double = total_loss_graph(batch, store, LossWeights(delta=2.0), cfg, seed=4).report
    assert double.total - base.total == pytest.approx(base.L_MC, abs=1e-12)
    assert double.L_MC == base.L_MC


def test_total_loss_assignment_cardinality(tiny_setup):
    cfg, store, batch = tiny_setup
    out = total_loss_graph(batch, store, LossWeights(), cfg, seed=2)
    for assignment, example in zip(out.assignments, batch):
        assert len(assignment.pairs) == min(cfg.num_slots, len(example.annotations))


def test_total_loss_gradients_match_finite_differences(tiny_setup):
    cfg, store, batch = tiny_setup
    out = total_loss_graph(batch, store, LossWeights(), cfg, seed=3)
    report = out.graph.finite_difference_check(out.total, step=1e-5, tolerance=1e-4)
    assert report.passed, f"max rel error {report.max_relative_error:.3e} " \
                          f"({report.worst.parameter if report.worst else 'none'})"
    assert report.checked_coordinates > 1000


def test_total_loss_text_params_get_no_gradient(tiny_setup):
    cfg, store, batch = tiny_setup
    out = total_loss_graph(batch, store, LossWeights(), cfg, seed=5)
    grads = out.graph.gradient(out.total).gradients
    assert not any(name.startswith("txt.") for name in grads)
    assert "mc.proj.w" in grads


def test_step_graph_size_does_not_grow_with_the_batch():
    cfg = TrainConfig.overfit_preset()
    examples = dataset_examples(training_records(), training_images())
    store = init_params(cfg.encoder, seed=1)
    sizes = []
    for count in (2, len(examples)):
        out = total_loss_graph(examples[:count], store, cfg.weights, cfg.encoder, seed=3)
        sizes.append(out.total.index + 1)
    assert len(examples) == 8
    assert sizes[0] == sizes[1]


def test_the_step_graph_keeps_its_biases_and_gains_fused():
    # A matmul read only by the add of a parameter is a linear undone, and
    # a layer_norm read only by a multiply by a parameter an affine
    # layer_norm undone.
    cfg = TrainConfig.overfit_preset()
    examples = dataset_examples(training_records(), training_images())[:cfg.batch_size]
    g = total_loss_graph(examples, init_params(cfg.encoder, seed=1), cfg.weights,
                         cfg.encoder, seed=3).graph
    readers = {}
    for i, parents in enumerate(g._parents):
        for p in parents:
            readers.setdefault(p, []).append(i)
    undone = {"matmul": "add", "layer_norm": "multiply"}
    unfused = [g._names[i] for i, op in enumerate(g._ops)
               if op in undone and len(readers.get(i, ())) == 1
               and g._ops[readers[i][0]] == undone[op]
               and any(g._ops[p] == "parameter" for p in g._parents[readers[i][0]])]
    assert unfused == []
    assert g._ops.count("linear") == 18
    assert [len(g._parents[i]) for i, op in enumerate(g._ops) if op == "layer_norm"] == [4] * 6


def _mixed_size_batch():
    def example(seed, size, captions):
        rng = np.random.default_rng(seed)
        image = rng.random((size, size, 3))
        return TrainExample(image=image, annotations=AnnotationSet(tuple(
            Annotation(caption=c, box=random_box(rng)) for c in captions)))

    return [example(20, 8, ["red sofa", "green lamp"]),
            example(21, 16, ["wooden table", "white mirror", "blue rug"]),
            example(22, 8, ["tall plant"])]


def test_mixed_image_sizes_build_one_tower_each(monkeypatch):
    cfg = replace(TINY, max_tokens=16)
    shapes = []
    build = objectives.build_image_embedding

    def recording(g, bind, images, config, initial_slots):
        shapes.append(np.shape(images))
        return build(g, bind, images, config, initial_slots)

    monkeypatch.setattr(objectives, "build_image_embedding", recording)
    out = total_loss_graph(_mixed_size_batch(), init_params(cfg, seed=2), LossWeights(),
                           cfg, seed=6)
    assert shapes == [(2, 8, 8, 3), (1, 16, 16, 3)]
    # Reference values from a build with one encoder graph per image
    # (_oracles.image_pathway), fed the rows of one generator seeded with 6:
    # the three slot sets as one draw, then each caption order.  Its loss
    # terms are numpy over the brute-force matcher and the scalar box oracles.
    expected = LossReport(L_C=2.7805937971220285, L_L1=0.7317225446549114,
                          L_GIoU=0.9786051259157099, L_MC=2.4297412812780506,
                          total=6.920662748970701)
    for name in ("L_C", "L_L1", "L_GIoU", "L_MC", "total"):
        assert getattr(out.report, name) == pytest.approx(getattr(expected, name),
                                                          rel=1e-12, abs=0), name
    assert [a.pairs for a in out.assignments] == [((0, 0), (1, 1)), ((0, 0), (1, 1)),
                                                  ((1, 0),)]
    report = out.graph.finite_difference_check(out.total, step=1e-5, tolerance=1e-4)
    assert report.passed, f"max rel error {report.max_relative_error:.3e}"
    assert (report.checked_coordinates, report.skipped_coordinates) == (2692, 0)


def test_two_steps_on_one_cached_graph_each_equal_a_fresh_build(tiny_setup):
    cfg, store, batch = tiny_setup
    # The second batch has the first's shape key with its images and
    # annotations moved around, so every bound leaf differs.
    other = [replace(batch[1], annotations=batch[0].annotations),
             replace(batch[0], image=batch[1].image[::-1], annotations=batch[1].annotations)]
    first = total_loss_graph(batch, store, LossWeights(), cfg, seed=1)
    second = total_loss_graph(other, store, LossWeights(), cfg, seed=2)
    assert second.graph is first.graph
    for built, examples, seed in ((first, batch, 1), (second, other, 2)):
        # A copy of the store starts with no graphs, so it builds its own.
        fresh = total_loss_graph(examples, snapshot(store), LossWeights(), cfg, seed=seed)
        assert fresh.graph is not built.graph
        assert built.report == fresh.report
        assert [a.pairs for a in built.assignments] == [a.pairs for a in fresh.assignments]
        got = built.graph.gradient(built.total, frame=built.frame)
        want = fresh.graph.gradient(fresh.total)
        assert built.frame.values[built.total.index] == fresh.graph.evaluate(fresh.total)
        for name, grad in want.gradients.items():
            assert got.gradients[name].tobytes() == grad.tobytes(), name


def test_an_earlier_steps_check_at_its_frame_ignores_a_later_step(tiny_setup):
    cfg, store, batch = tiny_setup
    other = [replace(batch[1], annotations=batch[0].annotations),
             replace(batch[0], image=batch[1].image[::-1], annotations=batch[1].annotations)]
    alone = snapshot(store)
    first = total_loss_graph(batch, store, LossWeights(), cfg, seed=1)
    second = total_loss_graph(other, store, LossWeights(), cfg, seed=2)
    assert second.graph is first.graph
    only = total_loss_graph(batch, alone, LossWeights(), cfg, seed=1)
    want = only.graph.finite_difference_check(only.total)
    assert first.graph.finite_difference_check(first.total, frame=first.frame) == want
    # With no frame the check reads the graph's current binding, the later step's.
    assert first.graph.finite_difference_check(first.total) != want


def test_a_store_keeps_its_own_graphs_and_rows_and_frees_them_when_dropped(tiny_setup,
                                                                           monkeypatch):
    cfg, store, batch = tiny_setup
    built_text = []
    build = encoder.build_text_embedding
    monkeypatch.setattr(encoder, "build_text_embedding",
                        lambda g, bind, rows, config: built_text.append(rows.shape[0])
                        or build(g, bind, rows, config))
    first = snapshot(store)
    row = encode_text("red sofa", first, cfg).vector
    image_embedding(batch[0].image, first, cfg, seed=1)
    loss = total_loss_graph(batch, first, LossWeights(), cfg, seed=1)
    assert built_text and encode_text("red sofa", first, cfg).vector is row
    # A kept row is read-only, so no caller can change what later calls read.
    assert not row.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 0.0
    # A second store of the same values builds its own graphs and rows.
    second = snapshot(first)
    count = len(built_text)
    again = encode_text("red sofa", second, cfg).vector
    assert len(built_text) == count + 1
    assert again is not row and again.tobytes() == row.tobytes()
    assert total_loss_graph(batch, second, LossWeights(), cfg, seed=1).graph is not loss.graph
    # Nothing a store keeps refers back to it, so reference counting alone
    # frees it, its flat array and its graphs once the caller drops them.
    refs = [weakref.ref(first), weakref.ref(first._flat), weakref.ref(loss.graph)]
    gc.disable()
    try:
        del first, loss
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_loss_line_roundtrip():
    report = LossReport(L_C=0.5, L_L1=1.25, L_GIoU=0.75, L_MC=2.0, total=4.5)
    step, *values = format_loss_line(12, report).split(",")
    assert int(step) == 12
    assert LossReport(*map(float, values)) == report


def test_annotation_validation():
    with pytest.raises(ValueError):
        Annotation(caption="", box=np.array([0, 0, 1, 1.0]))
    with pytest.raises(ValueError):
        Annotation(caption="x", box=np.array([0.5, 0, 0.2, 1.0]))
    with pytest.raises(ValueError):
        AnnotationSet(annotations=())
