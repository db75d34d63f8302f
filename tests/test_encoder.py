"""Encoder: patch transformer, slot attention, box head, aggregation, text path."""

from dataclasses import replace

import numpy as np
import pytest

from slotnav import encoder
from slotnav.autodiff import Graph, LRUCache, ParamStore, derive_seed
from slotnav.encoder import (
    Binding,
    EncoderConfig,
    build_aggregate,
    build_box_head,
    build_image_embedding,
    build_slot_attention,
    build_text_embedding,
    encode_text,
    image_embedding,
    init_params,
    param_specs,
    patchify,
    read_ppm,
    sample_slots,
    write_ppm,
)
from slotnav.harness import TrainConfig

from _oracles import (image_pathway, image_tokens, slot_attention, snapshot, transformer_block,
                      with_values)

DESK = EncoderConfig(max_tokens=4)


@pytest.fixture(scope="module")
def desk_store():
    return init_params(DESK, seed=5)


def random_image(seed, size=16):
    return np.random.default_rng(seed).random((size, size, 3))


def bind_image(g, nodes, images, slots0, config=DESK):
    """Bind an image graph's data leaves to images and slots0; the binding
    becomes the graph's current one."""
    return g.bind({nodes["patches"]: patchify(images, config.patch_size),
                   nodes["slots0"]: slots0})


def test_patchify_layout_is_row_major_tiles():
    image = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
    patches = patchify(image, 2)
    assert patches.shape == (2, 12)
    # First patch is the left 2x2 tile, rows then columns then channels.
    expected = np.concatenate([image[0, 0], image[0, 1], image[1, 0], image[1, 1]])
    assert np.array_equal(patches[0], expected)


def boxes_of(slots, store):
    g = Graph()
    return g.evaluate(build_box_head(g, Binding(g, store), g.constant(slots)))


def one_step(tokens, slots0, store):
    return slot_attention(tokens, store, replace(DESK, slot_iters=1), slots0)


def test_encode_image_token_count(desk_store):
    tokens, pooled = image_tokens(random_image(0), desk_store, DESK)
    assert tokens.shape == (4, DESK.dim)
    assert pooled.shape == (1, DESK.dim)
    assert np.allclose(pooled[0], tokens.mean(axis=0))


def test_encode_image_rejects_indivisible_size(desk_store):
    with pytest.raises(ValueError):
        image_embedding(np.zeros((10, 16, 3)), desk_store, DESK, seed=0)


def test_encode_image_deterministic(desk_store):
    image = random_image(1)
    a_emb, a_boxes = image_embedding(image, desk_store, DESK, seed=2)
    b_emb, b_boxes = image_embedding(image, desk_store, DESK, seed=2)
    assert a_emb.vector.tobytes() == b_emb.vector.tobytes()
    assert a_boxes.tobytes() == b_boxes.tobytes()


def test_zero_image_with_zero_positions_gives_identical_tokens(desk_store):
    store = with_values(desk_store, {"img.pos": np.zeros_like(desk_store["img.pos"])})
    tokens, _ = image_tokens(np.zeros((16, 16, 3)), store, DESK)
    assert np.allclose(tokens, tokens[0], atol=1e-12)


def test_identical_tokens_force_uniform_weights(desk_store):
    tokens = np.tile(np.random.default_rng(2).normal(size=DESK.dim), (4, 1))
    out = one_step(tokens, sample_slots(DESK, 3), desk_store)
    assert np.allclose(out.weights, 1.0 / 4.0, atol=1e-12)


def test_slot_step_matches_scripted_attention_reference(desk_store):
    # Eq style reference: A = rowwise softmax of k(h) q(S)^T / sqrt(D_s),
    # W = A with each column scaled to sum 1.
    rng = np.random.default_rng(4)
    tokens = rng.normal(size=(4, DESK.dim))
    slots0 = sample_slots(DESK, 9)
    out = one_step(tokens, slots0, desk_store)

    logits = (tokens @ desk_store["slot.k.w"]) @ (slots0 @ desk_store["slot.q.w"]).T
    logits /= np.sqrt(DESK.slot_dim)
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn = exp / exp.sum(axis=1, keepdims=True)
    weights = attn / attn.sum(axis=0, keepdims=True)
    assert np.allclose(out.attention, attn, atol=1e-12)
    assert np.allclose(out.weights, weights, atol=1e-12)
    assert np.all(np.abs(out.weights.sum(axis=0) - 1.0) < 1e-9)
    assert np.all(np.abs(out.attention.sum(axis=1) - 1.0) < 1e-9)


def test_slot_step_permutation_equivariance(desk_store):
    rng = np.random.default_rng(5)
    tokens = rng.normal(size=(4, DESK.dim))
    slots0 = sample_slots(DESK, 11)
    perm = np.array([2, 0, 3, 1])
    base = one_step(tokens, slots0, desk_store)
    permuted = one_step(tokens, slots0[perm], desk_store)
    assert np.allclose(permuted.slots, base.slots[perm], atol=1e-9)
    assert np.allclose(permuted.attention, base.attention[:, perm], atol=1e-9)


def test_seed_draws_the_slots_derived_from_it(desk_store):
    image = random_image(6)
    tokens, _ = image_tokens(image, desk_store, DESK)
    seed = 21
    init = sample_slots(DESK, derive_seed(seed, "slots"))
    emb, boxes = image_embedding(image, desk_store, DESK, seed=seed)
    want_emb, want_boxes, seeded = image_pathway(image, desk_store, DESK, init)
    assert emb.vector.tobytes() == want_emb.tobytes()
    assert boxes.tobytes() == want_boxes.tobytes()
    given = slot_attention(tokens, desk_store, DESK, init)
    assert seeded.iteration == given.iteration == DESK.slot_iters
    for a, b in zip(seeded.history, given.history):
        assert a.slots.tobytes() == b.slots.tobytes()
        assert a.attention.tobytes() == b.attention.tobytes()


def test_image_embedding_same_seed_same_slots(desk_store):
    image = random_image(7)
    a, a_boxes = image_embedding(image, desk_store, DESK, seed=3)
    b, b_boxes = image_embedding(image, desk_store, DESK, seed=3)
    assert a.vector.tobytes() == b.vector.tobytes()
    assert a_boxes.tobytes() == b_boxes.tobytes()
    c, c_boxes = image_embedding(image, desk_store, DESK, seed=4)
    assert not np.array_equal(a.vector, c.vector)
    assert not np.array_equal(a_boxes, c_boxes)


def test_many_slots_many_iterations_stay_finite(desk_store):
    cfg = EncoderConfig(max_tokens=4, num_slots=10, slot_iters=20)
    tokens, _ = image_tokens(random_image(8), desk_store, cfg)
    state = slot_attention(tokens, desk_store, cfg, sample_slots(cfg, derive_seed(0, "slots")))
    assert np.all(np.isfinite(state.slots))
    assert state.iteration == 20
    for past in state.history:
        assert np.all(np.abs(past.attention.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(np.abs(past.weights.sum(axis=0) - 1.0) < 1e-9)


def test_predict_boxes_shape_and_validity(desk_store):
    for seed in range(20):
        boxes = boxes_of(sample_slots(DESK, seed) * 3.0, desk_store)
        assert boxes.shape == (DESK.num_slots, 4)
        assert np.all(boxes >= 0.0) and np.all(boxes <= 1.0)
        assert np.all(boxes[:, 0] <= boxes[:, 2])
        assert np.all(boxes[:, 1] <= boxes[:, 3])


def test_center_size_half_half_one_one_maps_to_full_image_box(desk_store):
    # Zero the last layer weights so its bias alone sets the sigmoid inputs:
    # sigmoid -> (0.5, 0.5, ~1, ~1), corners -> (0, 0, 1, 1).
    store = with_values(desk_store, {"box.l2.w": np.zeros_like(desk_store["box.l2.w"]),
                                     "box.l2.b": np.array([0.0, 0.0, 50.0, 50.0])})
    boxes = boxes_of(sample_slots(DESK, 0), store)
    assert np.allclose(boxes, np.tile([0.0, 0.0, 1.0, 1.0], (DESK.num_slots, 1)), atol=1e-9)


def test_aggregate_embedding_shape_and_norm(desk_store):
    image = random_image(9)
    emb, boxes = image_embedding(image, desk_store, DESK, seed=1)
    assert emb.vector.shape == (DESK.dim,)
    assert abs(np.linalg.norm(emb.vector) - 1.0) < 1e-9
    assert boxes.shape == (DESK.num_slots, 4)
    _, _, state = image_pathway(image, desk_store, DESK,
                                sample_slots(DESK, derive_seed(1, "slots")))
    assert state.slots.shape == (DESK.num_slots, DESK.slot_dim)
    assert len(state.history) == state.iteration == DESK.slot_iters


def test_zeroed_slot_branch_ignores_slots(desk_store):
    store = with_values(desk_store, {"agg.slots.w": np.zeros_like(desk_store["agg.slots.w"]),
                                     "agg.slots.b": np.zeros_like(desk_store["agg.slots.b"])})
    ea, a_boxes = image_embedding(random_image(10), store, DESK, seed=1)
    eb, b_boxes = image_embedding(random_image(10), store, DESK, seed=2)
    # The boxes read the slots alone, so different boxes mean different slots.
    assert not np.array_equal(a_boxes, b_boxes)
    assert np.allclose(ea.vector, eb.vector, atol=1e-12)


def test_full_run_permutation_equivariance(desk_store):
    tokens, _ = image_tokens(random_image(11), desk_store, DESK)
    init = sample_slots(DESK, 13)
    perm = np.array([3, 1, 0, 2])
    base = slot_attention(tokens, desk_store, DESK, init)
    swapped = slot_attention(tokens, desk_store, DESK, init[perm])
    assert np.allclose(swapped.slots, base.slots[perm], atol=1e-9)
    base_boxes = boxes_of(base.slots, desk_store)
    swapped_boxes = boxes_of(swapped.slots, desk_store)
    assert np.allclose(swapped_boxes, base_boxes[perm], atol=1e-9)


def test_image_embedding_builds_one_graph_and_evaluates_it_once(desk_store, monkeypatch):
    calls = {"graphs": 0, "evaluate": 0}
    init, evaluate = Graph.__init__, Graph.evaluate

    def counted_init(self):
        calls["graphs"] += 1
        init(self)

    def counted_evaluate(self, *args, **kwargs):
        calls["evaluate"] += 1
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    monkeypatch.setattr(Graph, "evaluate", counted_evaluate)
    store = snapshot(desk_store)
    image_embedding(random_image(12), store, DESK, seed=3)
    assert calls == {"graphs": 1, "evaluate": 1}
    # The graph is built once per patch count; each call evaluates it once.
    image_embedding(random_image(13), store, DESK, seed=4)
    assert calls == {"graphs": 1, "evaluate": 2}
    image_embedding(random_image(14)[:8], store, DESK, seed=4)
    assert calls == {"graphs": 2, "evaluate": 3}


def test_images_with_one_patch_count_share_a_graph_exactly(desk_store, monkeypatch):
    rng = np.random.default_rng(61)
    images = [rng.random(shape) for shape in ((16, 16, 3), (8, 32, 3), (32, 8, 3))]
    built = []
    build = encoder.build_image_embedding

    def counted(g, bind, image, config, initial_slots):
        built.append(np.shape(image))
        return build(g, bind, image, config, initial_slots)

    monkeypatch.setattr(encoder, "build_image_embedding", counted)
    store = snapshot(desk_store)
    shared = [image_embedding(image, store, DESK, seed=7 + i)
              for i, image in enumerate(images)]
    assert built == [(16, 16, 3)]
    for i, (image, (emb, boxes)) in enumerate(zip(images, shared)):
        cold_emb, cold_boxes = image_embedding(image, snapshot(desk_store), DESK, seed=7 + i)
        assert emb.vector.tobytes() == cold_emb.vector.tobytes()
        assert boxes.tobytes() == cold_boxes.tobytes()
    assert len(built) == 1 + len(images)


def test_a_built_image_graph_holds_no_image_data(desk_store):
    g = Graph()
    nodes = build_image_embedding(g, Binding(g, desk_store),
                                  random_image(1), DESK, sample_slots(DESK, 2))
    with pytest.raises(ValueError, match="input patches is not bound"):
        g.evaluate(nodes["embedding"])


def staged_image_embedding(image, store, config, seed):
    """The image pathway as four graphs, each stage's output fed to the next
    as a constant."""
    def stage():
        g = Graph()
        return g, Binding(g, store)

    tokens, pooled = image_tokens(image, store, config)
    g, bind = stage()
    init = sample_slots(config, derive_seed(seed, "slots"))
    _, traces = build_slot_attention(g, bind, g.constant(tokens), g.constant(init), config)
    history = g.evaluate([node for trace in traces for node in trace])
    slots = history[-1]
    g, bind = stage()
    boxes = g.evaluate(build_box_head(g, bind, g.constant(slots)))
    g, bind = stage()
    embedding = g.evaluate(build_aggregate(g, bind, g.constant(pooled), g.constant(slots),
                                           config))
    return embedding.reshape(-1), boxes, history


def test_image_embedding_equals_the_staged_evaluation_bit_for_bit():
    config = TrainConfig.overfit_preset().encoder
    store = init_params(config, seed=7)
    for size in (16, 32, 64):
        image = random_image(60 + size, size=size)
        emb, boxes = image_embedding(image, store, config, seed=size)
        want_emb, want_boxes, want_history = staged_image_embedding(image, store, config,
                                                                    seed=size)
        assert emb.vector.tobytes() == want_emb.tobytes(), size
        assert boxes.tobytes() == want_boxes.tobytes(), size
        # The slot history, from a fresh build of the same pathway.
        _, _, state = image_pathway(image, store, config,
                                    sample_slots(config, derive_seed(size, "slots")))
        assert state.slots.tobytes() == want_history[-1].tobytes(), size
        got_history = [a for past in state.history
                       for a in (past.attention, past.weights, past.slots)]
        assert len(got_history) == len(want_history) == 3 * config.slot_iters
        for u, (got, want) in enumerate(zip(got_history, want_history)):
            assert got.tobytes() == want.tobytes(), (size, u)


def test_encode_text_contract(desk_store):
    a = encode_text("sofa", desk_store, DESK)
    b = encode_text("sofa", desk_store, DESK)
    assert a.vector.tobytes() == b.vector.tobytes()
    assert abs(np.linalg.norm(a.vector) - 1.0) < 1e-9
    other = encode_text("ceiling fan", desk_store, DESK)
    assert float(a.vector @ other.vector) < 1.0 - 1e-6
    with pytest.raises(ValueError):
        encode_text("   ", desk_store, DESK)


def test_image_stack_gives_each_image_its_one_image_values(desk_store):
    images = [random_image(40 + b) for b in range(4)]
    slots0 = [sample_slots(DESK, 50 + b) for b in range(4)]
    g = Graph()
    stack = build_image_embedding(g, Binding(g, desk_store), np.stack(images), DESK,
                                  np.stack(slots0))
    bind_image(g, stack, np.stack(images), np.stack(slots0))
    keys = ("tokens", "pooled", "slots", "boxes", "embedding")
    batched = dict(zip(keys, g.evaluate([stack[k] for k in keys])))
    assert batched["tokens"].shape == (4, 4, DESK.dim)
    assert batched["pooled"].shape == batched["embedding"].shape == (4, DESK.dim)
    assert batched["boxes"].shape == (4, DESK.num_slots, 4)
    for b in range(4):
        h = Graph()
        one = build_image_embedding(h, Binding(h, desk_store), images[b], DESK, slots0[b])
        bind_image(h, one, images[b], slots0[b])
        alone = dict(zip(keys, h.evaluate([one[k] for k in keys])))
        assert alone["pooled"].shape == alone["embedding"].shape == (1, DESK.dim)
        for k in keys:
            row = batched[k][b] if k not in ("pooled", "embedding") else batched[k][b:b + 1]
            assert np.allclose(row, alone[k], rtol=0, atol=1e-12), k


def test_patchify_takes_leading_axes():
    images = np.random.default_rng(9).random((2, 3, 8, 16, 3))
    patches = patchify(images, 4)
    assert patches.shape == (2, 3, 8, 48)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(patches[i, j], patchify(images[i, j], 4))


def test_embedding_path_gradients_match_finite_differences():
    # Small widths keep the coordinate sweep fast; the acceptance suite runs
    # the full desk configuration through the training loss instead.
    cfg = EncoderConfig(patch_size=8, dim=16, slot_dim=16, num_slots=2,
                        slot_iters=2, heads=2, max_tokens=4)
    store = init_params(cfg, seed=17)
    rng = np.random.default_rng(23)
    g = Graph()
    bind = Binding(g, store)
    image, slots0 = rng.random((16, 16, 3)), sample_slots(cfg, 29)
    nodes = build_image_embedding(g, bind, image, cfg, slots0)
    bind_image(g, nodes, image, slots0, cfg)
    probe = g.constant(rng.normal(size=(1, cfg.dim)))
    target = g.sum(g.multiply(nodes["embedding"], probe))
    report = g.finite_difference_check(target, step=1e-5, tolerance=1e-4)
    assert report.passed, f"max rel error {report.max_relative_error:.3e}"
    assert report.checked_coordinates > 0


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_over_a_head_axis_equals_a_per_head_oracle(heads):
    cfg = EncoderConfig(dim=8, heads=heads, max_tokens=4)
    store = init_params(cfg, seed=heads)
    rng = np.random.default_rng(heads)
    for shape in ((5, 8), (3, 5, 8)):
        x = rng.normal(size=shape)
        g = Graph()
        out = encoder._transformer_block(g, Binding(g, store), g.constant(x),
                                         "img.blk0", heads)
        got, want = g.evaluate(out), transformer_block(x, store, "img.blk0", heads)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # The block's gradients, with every parameter probed along a leading axis.
    g = Graph()
    bind = Binding(g, store)
    out = encoder._transformer_block(g, bind, g.constant(rng.normal(size=(2, 3, 8))),
                                     "img.blk0", heads)
    loss = g.sum(g.multiply(out, g.constant(rng.normal(size=out.shape))))
    report = g.finite_difference_check(loss, step=1e-6, tolerance=1e-5)
    assert report.passed and report.checked_coordinates == sum(
        store[name].size for name in store.names() if name.startswith("img.blk0."))


def test_param_specs_give_init_params_names_shapes_and_frozen_flags():
    for cfg in (EncoderConfig(), EncoderConfig(dim=8, slot_dim=6, num_slots=3, depth=2,
                                               heads=4, max_tokens=9, text_len=5)):
        store = init_params(cfg, seed=1)
        assert [(name, value.shape, name in store.frozen) for name, value in store.items()] \
            == [(name, shape, frozen) for name, shape, frozen, _ in param_specs(cfg)]


def test_positional_slices_pass_no_gradient_beyond_their_rows():
    # A stack of two images of four patches each reads the first four rows
    # of a six-row table, and a two-token query the first two of sixteen.
    cfg = EncoderConfig(max_tokens=6)
    store = ParamStore(dict(init_params(cfg, seed=5).items()))
    g = Graph()
    bind = Binding(g, store)
    images = np.stack([random_image(1), random_image(2)])
    slots0 = np.stack([sample_slots(cfg, 3), sample_slots(cfg, 4)])
    nodes = build_image_embedding(g, bind, images, cfg, slots0)
    bind_image(g, nodes, images, slots0, cfg)
    text = build_text_embedding(g, bind, g.constant(store["txt.embed"][[3, 7]]), cfg)
    grads = g.gradient(g.sum(g.multiply(nodes["embedding"], text))).gradients
    for name, rows in (("img.pos", 4), ("txt.pos", 2)):
        assert grads[name].shape == store[name].shape
        assert np.all(grads[name][rows:] == 0.0), name
        assert np.all(np.any(grads[name][:rows] != 0.0, axis=1)), name


def test_normalize_rows_of_a_stack_and_its_gradient():
    rng = np.random.default_rng(31)
    g = Graph()
    x = g.parameter("x", rng.normal(size=(2, 3, 4)))
    unit = encoder._normalize_rows(g, x)
    assert np.allclose(np.linalg.norm(g.evaluate(unit), axis=-1), 1.0, rtol=0, atol=1e-12)
    loss = g.sum(g.multiply(unit, g.constant(rng.normal(size=(2, 3, 4)))))
    report = g.finite_difference_check(loss, step=1e-6)
    assert report.passed, f"max rel error {report.max_relative_error:.3e}"
    assert (report.checked_coordinates, report.skipped_coordinates) == (24, 0)


def test_ppm_roundtrip(tmp_path):
    image = np.random.default_rng(31).random((6, 5, 3))
    path = tmp_path / "img.ppm"
    write_ppm(path, image)
    back = read_ppm(path)
    assert back.shape == (6, 5, 3)
    assert np.max(np.abs(back - image)) <= 0.5 / 255.0 + 1e-12


def test_malformed_ppm_raises_naming_its_file(tmp_path):
    path = tmp_path / "img.ppm"
    write_ppm(path, random_image(3, size=8))
    blob = path.read_bytes()
    cut = tmp_path / "cut.ppm"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError) as err:
            read_ppm(cut)
        assert str(err.value).startswith(f"{cut}: ")
    cut.write_bytes(blob.replace(b"P6\n8 8", b"P6\nab 8", 1))
    with pytest.raises(ValueError) as err:
        read_ppm(cut)
    assert str(err.value).startswith(f"{cut}: ")


def test_reference_config_is_consistent():
    ref = EncoderConfig.reference()
    assert (ref.num_slots, ref.slot_iters, ref.dim, ref.slot_dim) == (10, 20, 768, 768)
    with pytest.raises(ValueError):
        EncoderConfig(num_slots=0)
    with pytest.raises(ValueError):
        EncoderConfig(slot_std=0.0)


def test_cached_inference_sees_every_store_update(desk_store):
    store = snapshot(desk_store)
    image = random_image(70)
    before_text = encode_text("red sofa", store, DESK).vector
    before_image = image_embedding(image, store, DESK, seed=1)[0].vector
    # A cached graph holds this store's views: an update in place reaches it.
    size = sum(store[name].size for name in store.trainable_names())
    store.descend(0.5, np.linspace(-1.0, 1.0, size))
    emb, boxes = image_embedding(image, store, DESK, seed=1)
    assert emb.vector.tobytes() != before_image.tobytes()
    # descend never writes the frozen text tower, so its kept row stays valid.
    assert encode_text("red sofa", store, DESK).vector is before_text
    # A fresh build over the updated store gives the same bytes.
    fresh = snapshot(store)
    assert encode_text("red sofa", fresh, DESK).vector.tobytes() == before_text.tobytes()
    fresh_emb, fresh_boxes = image_embedding(image, fresh, DESK, seed=1)
    assert fresh_emb.vector.tobytes() == emb.vector.tobytes()
    assert fresh_boxes.tobytes() == boxes.tobytes()
    # Another store builds over its own values, frozen tensors included.
    other = with_values(store, {name: store[name] * 1.5 + 0.01 for name in (
        "txt.embed", "txt.blk0.mlp1.w", "img.patch.w", "slot.q.w", "agg.mlp2.b")})
    assert encode_text("red sofa", other, DESK).vector.tobytes() != before_text.tobytes()
    assert image_embedding(image, other, DESK, seed=1)[0].vector.tobytes() \
        != emb.vector.tobytes()


def test_text_graphs_are_kept_per_token_count(desk_store, monkeypatch):
    built = []
    build = encoder.build_text_embedding

    def counted(*args):
        built.append(args[2].shape[0])
        return build(*args)

    monkeypatch.setattr(encoder, "build_text_embedding", counted)
    store = snapshot(desk_store)
    store.graphs = LRUCache(maxsize=2)
    rows = {query: encode_text(query, store, DESK).vector
            for query in ("sofa", "lamp", "red sofa", "blue lamp", "chair", "a red sofa")}
    # "a red sofa" pushes out the least recently used two-token graph, so
    # "green lamp" builds it anew, and pushes out the one-token graph.
    encode_text("green lamp", store, DESK)
    assert built == [1, 2, 3, 2]
    # A text already encoded is read from the store's rows: nothing is built.
    assert encode_text("lamp", store, DESK).vector is rows["lamp"]
    assert built == [1, 2, 3, 2]


def test_text_rows_keep_the_recent_texts_only(desk_store):
    store = snapshot(desk_store)
    store.text_rows.maxsize = 3
    texts = ["sofa", "lamp", "red chair", "blue cup", "tall plant"]
    rows = [encode_text(text, store, DESK).vector for text in texts]
    assert len(store.text_rows._items) == 3
    # "sofa" was dropped: it is computed again, to the same bytes.
    again = encode_text("sofa", store, DESK).vector
    assert again is not rows[0] and again.tobytes() == rows[0].tobytes()
    # "tall plant" was kept: the same read-only row.
    kept = encode_text("tall plant", store, DESK).vector
    assert kept is rows[-1] and not kept.flags.writeable
    assert len(store.text_rows._items) == 3
