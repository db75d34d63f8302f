import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from slotnav import harness, objectives
from slotnav.autodiff import EvaluationError, Graph, LRUCache, derive_seed, load_checkpoint
from slotnav.encoder import EncoderConfig, init_params, tokenize
from slotnav.fixtures import training_images, training_records, write_fixture_bundle
from slotnav.harness import (AblationReport, ConvergenceReport, RunManifest,
                             TrainConfig, batches_for_epoch, canonical_caption,
                             config_from_dict, config_to_dict, dataset_examples,
                             embed_images, eval_seed, hash_inputs, learning_rate,
                             loss_ablation, overfit_harness, parse_config_file,
                             prompt_template_report, train, train_on_examples,
                             train_step, training_set_ar1)
from slotnav.objectives import LossWeights, total_loss_graph


def desk_config(**overrides):
    base = dict(lr=1e-4, decay=0.0, batch_size=2, warmup_steps=0,
                total_steps=4, seed=5)
    base.update(overrides)
    return TrainConfig(**base)


def fixture_examples():
    return dataset_examples(training_records(), training_images())


def fresh_store(config):
    return init_params(config.encoder, seed=derive_seed(config.seed, "init", 0))


# ----------------------------------------------------------------------
# Configuration

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(warmup_steps=11, total_steps=10)


def test_reference_preset_values():
    cfg = TrainConfig.reference_preset()
    assert cfg.lr == 1e-5
    assert cfg.decay == 1e-2
    assert cfg.batch_size == 32
    assert cfg.warmup_steps == 1000
    assert cfg.total_steps == 50000
    assert cfg.encoder == EncoderConfig.reference()


def test_overfit_preset_fits_budget():
    cfg = TrainConfig.overfit_preset()
    assert cfg.batch_size == 8
    assert cfg.warmup_steps <= cfg.total_steps
    assert cfg.encoder == EncoderConfig()


def test_config_round_trips_through_dict():
    cfg = TrainConfig(lr=0.5, decay=0.25, batch_size=3, warmup_steps=2,
                      total_steps=9, seed=42,
                      weights=LossWeights(alpha=2.0, tau=0.5),
                      encoder=EncoderConfig(dim=16, slot_dim=16, num_slots=2))
    snapshot = config_to_dict(cfg)
    assert config_from_dict(json.loads(json.dumps(snapshot))) == cfg


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "lr = 0.25\n"
        "total_steps = 7  # trailing comment\n"
        "\n"
        "weights.tau = 0.5\n"
        "encoder.dim = 16\n"
        "encoder.slot_dim = 16\n",
        encoding="utf-8")
    cfg = parse_config_file(str(path))
    assert cfg.lr == 0.25
    assert cfg.total_steps == 7
    assert cfg.weights.tau == 0.5
    assert cfg.encoder.dim == 16
    assert cfg.decay == TrainConfig().decay


def test_parse_config_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("lr = 0.1\nno equals sign here\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.cfg: line 2"):
        parse_config_file(str(path))
    path.write_text("lr = not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.cfg: line 1"):
        parse_config_file(str(path))


# ----------------------------------------------------------------------
# Learning-rate schedule

def test_schedule_linear_warmup_then_exponential_decay():
    cfg = TrainConfig(lr=0.8, decay=0.5, warmup_steps=4, total_steps=10)
    assert learning_rate(cfg, 0) == pytest.approx(0.2)
    assert learning_rate(cfg, 1) == pytest.approx(0.4)
    assert learning_rate(cfg, 3) == pytest.approx(0.8)
    assert learning_rate(cfg, 4) == 0.8
    assert learning_rate(cfg, 5) == pytest.approx(0.8 * math.exp(-0.5))
    assert learning_rate(cfg, 6) == pytest.approx(0.8 * math.exp(-1.0))


def test_schedule_without_warmup_starts_at_lr():
    cfg = TrainConfig(lr=0.1, decay=0.0, warmup_steps=0, total_steps=5)
    assert learning_rate(cfg, 0) == 0.1
    assert learning_rate(cfg, 4) == 0.1


def test_schedule_rejects_negative_step():
    with pytest.raises(ValueError):
        learning_rate(TrainConfig(), -1)


# ----------------------------------------------------------------------
# Train step

def test_step_report_matches_direct_loss():
    cfg = desk_config()
    store = fresh_store(cfg)
    batch = fixture_examples()[:2]
    direct = total_loss_graph(batch, store, cfg.weights, cfg.encoder,
                              derive_seed(cfg.seed, "step", 0)).report
    report = train_step(store, batch, cfg, 0)
    assert report.total == direct.total
    assert report.L_C == direct.L_C
    assert report.L_MC == direct.L_MC


def test_training_on_no_examples_is_an_error_not_an_endless_loop():
    # Its epochs have no batches, so the step count would never advance.
    with pytest.raises(ValueError, match="no training examples"):
        train_on_examples([], desk_config())


def test_train_step_runs_each_forward_closure_at_most_once(monkeypatch):
    calls: Counter = Counter()
    register = Graph._register

    def counting(self, op, parents, shape, forward, backward, name=None):
        node = register(self, op, parents, shape, forward, backward, name)
        if forward is not None:
            def counted(values, key=(self, node.index)):
                calls[key] += 1
                return forward(values)
            self._forward[node.index] = counted
        return node

    built = []
    build = harness.total_loss_graph

    def keeping(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    joined = []
    concat = objectives.concat_captions

    def recording(captions, rng):
        joined.append(concat(captions, rng))
        return joined[-1]

    monkeypatch.setattr(Graph, "_register", counting)
    monkeypatch.setattr(harness, "total_loss_graph", keeping)
    monkeypatch.setattr(objectives, "concat_captions", recording)
    cfg = TrainConfig.overfit_preset()
    batch = fixture_examples()[:cfg.batch_size]
    train_step(fresh_store(cfg), batch, cfg, 0)
    graph = built[0].graph
    ran = {i: n for (g, i), n in calls.items() if g is graph}
    assert sorted(ran) == [i for i, fn in enumerate(graph._forward) if fn is not None]
    assert set(ran.values()) == {1}
    # The fresh store builds a text tower per token count, which runs once
    # per distinct text of that count: the step's rows are kept.
    assert len(joined) == len(batch)
    texts = set(joined) | {c for ex in batch for c in ex.annotations.captions()}
    per_count = Counter(len(tokenize(t, cfg.encoder)) for t in texts)
    towers = {}
    for (g, i), n in calls.items():
        if g is not graph:
            count = g._shapes[g._names.index("txt.tokens")][0]
            towers.setdefault(count, set()).add(n)
    assert towers == {count: {n} for count, n in per_count.items()}


def test_gradient_from_the_loss_frame_equals_a_fresh_gradient():
    cfg = TrainConfig.overfit_preset()
    store = fresh_store(cfg)
    built = total_loss_graph(fixture_examples(), store, cfg.weights, cfg.encoder, seed=3)
    names = store.trainable_names()
    reused = built.graph.gradient(built.total, parameters=names, frame=built.frame)
    fresh = built.graph.gradient(built.total, parameters=names)
    assert built.frame.values[built.total.index] == built.graph.evaluate(built.total) \
        == built.report.total
    for name in names:
        assert np.array_equal(reused.gradients[name], fresh.gradients[name])


def test_cached_steps_equal_fresh_steps_byte_for_byte(monkeypatch):
    # Batches of 3, 3 and 2 images give two shape keys, and each epoch's
    # shuffle moves the annotation counts between images.
    cfg = replace(TrainConfig.overfit_preset(), batch_size=3, total_steps=20)
    examples = fixture_examples()
    builds = []
    build = objectives._build_step_graph

    def counted(stacks, slots0, matched, annotations, *rest):
        builds.append((tuple(s.shape for s in stacks), matched, annotations))
        return build(stacks, slots0, matched, annotations, *rest)

    monkeypatch.setattr(objectives, "_build_step_graph", counted)
    cached_store, cached = train_on_examples(examples, cfg)
    # One build per shape key: stack shapes, matched and annotation counts.
    assert len(builds) == len(set(builds)) < 20
    step = harness.train_step

    def fresh_step(store, batch, config, n):
        # An empty one-entry cache: the step builds its loss graph anew.
        store.graphs = LRUCache(maxsize=1)
        return step(store, batch, config, n)

    monkeypatch.setattr(harness, "train_step", fresh_step)
    keys = len(builds)
    fresh_store_, fresh = train_on_examples(examples, cfg)
    assert len(builds) == keys + 20
    assert cached == fresh and len(fresh) == 20
    assert cached_store.names() == fresh_store_.names()
    for name in fresh_store_.names():
        assert cached_store[name].tobytes() == fresh_store_[name].tobytes(), name


def test_first_step_does_not_increase_loss():
    cfg = desk_config(lr=1e-4)
    store = fresh_store(cfg)
    batch = fixture_examples()[:2]
    before = train_step(store, batch, cfg, 0)
    after = total_loss_graph(batch, store, cfg.weights, cfg.encoder,
                             derive_seed(cfg.seed, "step", 0)).report
    assert after.total <= before.total


def test_underflowed_learning_rate_is_a_no_op():
    cfg = desk_config(lr=1e-3, decay=800.0)
    assert learning_rate(cfg, 1) == 0.0
    store = fresh_store(cfg)
    before = {name: store[name].copy() for name in store.names()}
    train_step(store, fixture_examples()[:2], cfg, 1)
    for name in store.names():
        assert np.array_equal(store[name], before[name])


def test_text_encoder_parameters_stay_frozen():
    cfg = desk_config(lr=0.05, total_steps=3)
    store = fresh_store(cfg)
    before = {name: store[name].copy() for name in store.names()}
    frozen = [name for name in store.names() if name.startswith("txt.")]
    assert frozen
    examples = fixture_examples()
    for step in range(3):
        train_step(store, examples[:2], cfg, step)
    for name in frozen:
        assert np.array_equal(store[name], before[name])
    assert any(not np.array_equal(store[name], before[name])
               for name in store.trainable_names())


def test_non_finite_loss_names_the_component():
    cfg = TrainConfig(lr=1e-4, batch_size=2, total_steps=4, seed=5,
                      weights=LossWeights(alpha=1e308, beta=1e308,
                                          gamma=1e308, delta=1e308))
    store = fresh_store(cfg)
    with pytest.raises(EvaluationError, match=r"^non-finite value in node \S+ at step 0$"):
        train_step(store, fixture_examples()[:2], cfg, 0)


# ----------------------------------------------------------------------
# Epoch ordering and the loop

def test_batches_partition_all_indices():
    cfg = TrainConfig(batch_size=5, seed=0, total_steps=10)
    batches = batches_for_epoch(12, cfg, 0)
    assert [len(b) for b in batches] == [5, 5, 2]
    assert sorted(i for batch in batches for i in batch) == list(range(12))


def test_batches_are_seeded_per_epoch():
    cfg = TrainConfig(batch_size=5, seed=0, total_steps=10)
    assert batches_for_epoch(12, cfg, 0) == batches_for_epoch(12, cfg, 0)
    assert batches_for_epoch(12, cfg, 0) != batches_for_epoch(12, cfg, 1)


def test_train_on_examples_runs_the_budget():
    cfg = desk_config(total_steps=3, batch_size=3)
    store, reports = train_on_examples(fixture_examples(), cfg)
    assert len(reports) == 3
    assert all(math.isfinite(r.total) for r in reports)


def test_train_on_examples_stop_ratio_stops_immediately_at_one():
    cfg = desk_config(total_steps=5)
    _, reports = train_on_examples(fixture_examples(), cfg, stop_ratio=1.0)
    assert len(reports) == 1


# ----------------------------------------------------------------------
# Artifacts and determinism

def run_training(tmp_path, tag):
    data_dir = tmp_path / "data"
    if not data_dir.exists():
        write_fixture_bundle(str(data_dir))
    out_dir = tmp_path / tag
    cfg = desk_config(lr=1e-3, total_steps=3, batch_size=4)
    manifest = train(str(data_dir), cfg, str(out_dir))
    return out_dir, manifest


def test_train_writes_checkpoint_log_and_manifest(tmp_path):
    out_dir, manifest = run_training(tmp_path, "run")
    assert (out_dir / "checkpoint.lzp").exists()
    assert (out_dir / "losses.log").exists()
    assert (out_dir / "manifest.json").exists()
    assert manifest.steps == 3
    lines = (out_dir / "losses.log").read_text().splitlines()
    assert len(lines) == 3
    first = lines[0].split(",")
    assert first[0] == "0"
    assert len(first) == 6
    loaded = RunManifest.load(str(out_dir / "manifest.json"))
    assert loaded == manifest
    params = load_checkpoint(str(out_dir / "checkpoint.lzp"))
    assert "img.patch.w" in params


def test_two_identical_runs_are_bit_identical(tmp_path):
    dir_a, manifest_a = run_training(tmp_path, "a")
    dir_b, manifest_b = run_training(tmp_path, "b")
    assert manifest_a == manifest_b
    for name in ("checkpoint.lzp", "losses.log"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_hash_inputs_is_order_independent_and_content_sensitive(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    a.write_bytes(b"alpha")
    b.write_bytes(b"beta")
    forward = hash_inputs([str(a), str(b)])
    assert forward == hash_inputs([str(b), str(a)])
    b.write_bytes(b"gamma")
    assert forward != hash_inputs([str(a), str(b)])


# ----------------------------------------------------------------------
# Evaluation helpers

def test_eval_seed_is_stable():
    cfg = desk_config()
    assert eval_seed(cfg) == eval_seed(desk_config())


def test_embed_images_yields_unit_rows():
    cfg = desk_config()
    store = fresh_store(cfg)
    examples = fixture_examples()[:3]
    index = embed_images(examples, ["a", "b", "c"], store, cfg)
    assert index.matrix.shape[0] == 3
    assert np.allclose(np.linalg.norm(index.matrix, axis=1), 1.0)


def test_canonical_caption_preserves_stored_order():
    example = fixture_examples()[0]
    assert canonical_caption(example) == "cup. book"


def test_training_set_ar1_is_bounded():
    cfg = desk_config()
    store = fresh_store(cfg)
    value = training_set_ar1(fixture_examples(), store, cfg)
    assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# Overfit harness and ablation plumbing

def test_overfit_harness_requires_multi_label():
    from slotnav.objectives import AnnotationSet, TrainExample
    example = fixture_examples()[0]
    single = TrainExample(image=example.image,
                          annotations=AnnotationSet(example.annotations.annotations[:1]))
    with pytest.raises(ValueError):
        overfit_harness([single], desk_config(total_steps=1))


def test_overfit_report_is_internally_consistent():
    cfg = desk_config(lr=1e-3, total_steps=2)
    report = overfit_harness(fixture_examples(), cfg)
    assert isinstance(report, ConvergenceReport)
    assert report.steps == len(report.curve) == 2
    assert report.initial_loss == report.curve[0]
    assert report.final_loss == report.curve[-1]
    assert 0.0 <= report.ar1 <= 1.0
    assert not report.converged


def test_loss_ablation_reports_both_runs():
    cfg = desk_config(lr=1e-3, total_steps=2)
    report = loss_ablation(fixture_examples(), cfg)
    assert isinstance(report, AblationReport)
    assert math.isfinite(report.full_loss)
    assert math.isfinite(report.contrastive_only_loss)
    assert len(report.lines()) == 3
    assert isinstance(report.full_objective_wins, bool)


def test_template_report_counts_fixture_queries():
    cfg = desk_config()
    store = fresh_store(cfg)
    report = prompt_template_report(training_records(), store, cfg.encoder)
    assert report.queries == 18
    assert 0.0 <= report.qs_only_ar1 <= 1.0
    assert 0.0 <= report.on_qs_ar1 <= 1.0
