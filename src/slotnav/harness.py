"""Training loop, learning-rate schedule, and reproducible run manifests."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .autodiff import EvaluationError, ParamStore, derive_seed, save_checkpoint
from .encoder import (EncoderConfig, check_field_types, encode_text, image_embedding,
                      init_params, patch_shape, read_ppm)
from .objectives import (Annotation, AnnotationSet, LossReport, LossWeights,
                         TrainExample, format_loss_line, total_loss_graph)
from .promptgen import CaptionRecord, build_prompt, load_dataset, read_lines
from .retrieval import GroundTruth, average_recall, batch_topk, build_index

Array = np.ndarray


# ----------------------------------------------------------------------
# Configuration

@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings plus the model and loss configurations."""

    lr: float = 1e-5
    decay: float = 1e-2
    batch_size: int = 4
    warmup_steps: int = 0
    total_steps: int = 100
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError("warmup must lie within the step budget")

    @classmethod
    def reference_preset(cls) -> "TrainConfig":
        """Full-scale schedule; kept as a preset, never run at desk scale."""
        return cls(lr=1e-5, decay=1e-2, batch_size=32, warmup_steps=1000,
                   total_steps=50000, encoder=EncoderConfig.reference())

    @classmethod
    def overfit_preset(cls) -> "TrainConfig":
        """Schedule tuned to overfit the bundled 8-image set in under a minute."""
        return cls(lr=0.1, decay=2e-3, batch_size=8, warmup_steps=10,
                   total_steps=400, seed=11)


def learning_rate(config: TrainConfig, step: int) -> float:
    """Linear warmup to lr, then exponential decay."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    if config.warmup_steps > 0 and step < config.warmup_steps:
        return config.lr * (step + 1) / config.warmup_steps
    return config.lr * math.exp(-config.decay * (step - config.warmup_steps))


def config_to_dict(config: TrainConfig) -> dict:
    snapshot = asdict(config)
    std = snapshot["encoder"]["slot_std"]
    if isinstance(std, tuple):
        snapshot["encoder"]["slot_std"] = list(std)
    return snapshot


def config_from_dict(data: dict) -> TrainConfig:
    data = dict(data)
    weights = LossWeights(**data.pop("weights", {}))
    encoder_data = dict(data.pop("encoder", {}))
    if isinstance(encoder_data.get("slot_std"), list):
        encoder_data["slot_std"] = tuple(encoder_data["slot_std"])
    return TrainConfig(weights=weights, encoder=EncoderConfig(**encoder_data),
                       **data)


def parse_config_file(path: str) -> TrainConfig:
    """Read `key = value` lines; weights.* and encoder.* reach the sub-configs."""
    top: dict = {}
    weights: dict = {}
    encoder: dict = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
        key, text = (part.strip() for part in line.split("=", 1))
        target, name = (top, key)
        if key.startswith("weights."):
            target, name = weights, key[len("weights."):]
        elif key.startswith("encoder."):
            target, name = encoder, key[len("encoder."):]
        try:
            target[name] = json.loads(text)
        except json.JSONDecodeError:
            raise ValueError(f"{path}: line {lineno}: bad value {text!r}")
    try:
        return config_from_dict({**top, "weights": weights, "encoder": encoder})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# Dataset plumbing

def dataset_examples(records: Sequence[CaptionRecord],
                     images: dict[str, Array]) -> list[TrainExample]:
    """Pair records with their pixel arrays; each object's first caption."""
    examples = []
    for record in records:
        if record.image_id not in images:
            raise ValueError(f"no image array for {record.image_id!r}")
        annotations = tuple(Annotation(caption=o.captions[0], box=o.box)
                            for o in record.objects)
        examples.append(TrainExample(image=images[record.image_id],
                                     annotations=AnnotationSet(annotations)))
    return examples


def load_image_dir(records: Sequence[CaptionRecord], data_dir: str,
                   config: EncoderConfig | None = None) -> dict[str, Array]:
    """Read {image_id}.ppm for every record.  Given an encoder config, an
    image it cannot patch raises ValueError naming the file."""
    images = {}
    for r in records:
        path = os.path.join(data_dir, f"{r.image_id}.ppm")
        images[r.image_id] = image = read_ppm(path)
        if config is not None:
            try:
                patch_shape(image.shape, config)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    return images


def hash_inputs(paths: Sequence[str]) -> str:
    """Content hash over the byte contents of the inputs, order-independent."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.basename(path).encode("utf-8"))
        digest.update(b"\x00")
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\x00")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Training

def train_step(store: ParamStore, batch: Sequence[TrainExample],
               config: TrainConfig, step: int) -> LossReport:
    """One gradient-descent step; frozen parameters are never touched.

    The store keeps its loss graphs, one per batch shape key, so a step
    rebinds a graph an earlier step built.  The gradient starts from the
    loss graph's evaluated frame, so every node runs once.  A divergence
    raises EvaluationError naming its node or parameter, and the step.
    """
    try:
        built = total_loss_graph(batch, store, config.weights, config.encoder,
                                 derive_seed(config.seed, "step", step))
        lr_t = learning_rate(config, step)
        if lr_t != 0.0:
            store.descend(lr_t, built.graph.gradient(
                built.total, parameters=store.trainable_names(), frame=built.frame).flat)
    except EvaluationError as exc:
        raise EvaluationError(f"{exc} at step {step}") from exc
    return built.report


def batches_for_epoch(count: int, config: TrainConfig, epoch: int) -> list[list[int]]:
    """Seeded shuffle of example indices, chunked to the batch size."""
    rng = np.random.default_rng(derive_seed(config.seed, "order", epoch))
    order = [int(i) for i in rng.permutation(count)]
    return [order[i:i + config.batch_size]
            for i in range(0, count, config.batch_size)]


def train_on_examples(examples: Sequence[TrainExample], config: TrainConfig,
                      stop_ratio: float | None = None) -> tuple[ParamStore, list[LossReport]]:
    """Run the step budget from the seeded initial parameters (optionally
    stopping at a loss ratio); in memory.  With no examples an epoch has no
    batches, so ValueError."""
    if not examples:
        raise ValueError("no training examples")
    store = init_params(config.encoder, seed=derive_seed(config.seed, "init", 0))
    reports: list[LossReport] = []
    step = 0
    epoch = 0
    initial: float | None = None
    while step < config.total_steps:
        for batch_indices in batches_for_epoch(len(examples), config, epoch):
            if step >= config.total_steps:
                break
            batch = [examples[i] for i in batch_indices]
            report = train_step(store, batch, config, step)
            reports.append(report)
            if initial is None:
                initial = report.total
            step += 1
            if stop_ratio is not None and report.total <= stop_ratio * initial:
                return store, reports
        epoch += 1
    return store, reports


# ----------------------------------------------------------------------
# Run manifest

@dataclass
class RunManifest:
    """Everything needed to reproduce a run and find its artifacts."""

    config: dict
    input_hash: str
    steps: int
    final_loss: float
    checkpoint: str
    losses: str

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """Read a manifest; a malformed one raises ValueError naming the path."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("expected a JSON object")
            manifest = cls(**data)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if not isinstance(manifest.checkpoint, str):
            raise ValueError(f"{path}: checkpoint must be a file name")
        return manifest


def train(data_dir: str, config: TrainConfig, out_dir: str) -> RunManifest:
    """Train from a dataset directory and write checkpoint, log, manifest."""
    dataset_path = os.path.join(data_dir, "dataset.jsonl")
    records = load_dataset(dataset_path)
    if not records:
        raise ValueError(f"{dataset_path}: no records")
    images = load_image_dir(records, data_dir, config.encoder)
    examples = dataset_examples(records, images)
    store, reports = train_on_examples(examples, config)

    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, "checkpoint.lzp")
    losses_path = os.path.join(out_dir, "losses.log")
    save_checkpoint(store, checkpoint_path)
    with open(losses_path, "w", encoding="utf-8") as fh:
        for step, report in enumerate(reports):
            fh.write(format_loss_line(step, report) + "\n")
    inputs = [dataset_path] + [os.path.join(data_dir, f"{r.image_id}.ppm")
                               for r in records]
    manifest = RunManifest(config=config_to_dict(config),
                           input_hash=hash_inputs(inputs),
                           steps=len(reports),
                           final_loss=reports[-1].total,
                           checkpoint="checkpoint.lzp",
                           losses="losses.log")
    manifest.save(os.path.join(out_dir, "manifest.json"))
    return manifest


# ----------------------------------------------------------------------
# Evaluation helpers

def eval_seed(config: TrainConfig) -> int:
    return derive_seed(config.seed, "eval", 0)


def embed_images(examples: Iterable[TrainExample], ids: Sequence[str],
                 store: ParamStore, config: TrainConfig):
    """Deterministic image embeddings for evaluation (fixed slot seed)."""
    seed = eval_seed(config)
    rows = [image_embedding(e.image, store, config.encoder, seed=seed)[0].vector
            for e in examples]
    return build_index(rows, ids)


def canonical_caption(example: TrainExample) -> str:
    """Stored-order concatenation of the example's captions."""
    return ". ".join(example.annotations.captions())


def training_set_ar1(examples: Sequence[TrainExample], store: ParamStore,
                     config: TrainConfig) -> float:
    """Top-1 self-retrieval through each image's canonical caption."""
    ids = [f"img{i:03d}" for i in range(len(examples))]
    index = embed_images(examples, ids, store, config)
    queries = build_index([encode_text(canonical_caption(e), store,
                                       config.encoder).vector
                           for e in examples],
                          [f"q{i:03d}" for i in range(len(examples))])
    results = batch_topk(queries, index, 1)
    gt = GroundTruth(relevant={f"q{i:03d}": frozenset({ids[i]})
                               for i in range(len(examples))})
    return average_recall(results, gt, 1).values[1]


# ----------------------------------------------------------------------
# Overfit harness

@dataclass
class ConvergenceReport:
    """Outcome of an overfit run on a tiny training set."""

    converged: bool
    steps: int
    initial_loss: float
    final_loss: float
    ar1: float
    curve: list[float]
    store: ParamStore


def overfit_harness(examples: Sequence[TrainExample],
                    config: TrainConfig) -> ConvergenceReport:
    """Train until the loss falls to a tenth of its start or budget ends."""
    if not any(len(e.annotations) > 1 for e in examples):
        raise ValueError("overfit set must carry multi-label annotations")
    store, reports = train_on_examples(examples, config, stop_ratio=0.1)
    curve = [r.total for r in reports]
    converged = curve[-1] <= 0.1 * curve[0]
    ar1 = training_set_ar1(examples, store, config)
    return ConvergenceReport(converged=converged, steps=len(reports),
                             initial_loss=curve[0], final_loss=curve[-1],
                             ar1=ar1, curve=curve, store=store)


@dataclass
class AblationReport:
    """Paired overfit runs: the full objective against contrastive-only."""

    full_loss: float
    contrastive_only_loss: float
    full_ar1: float
    contrastive_only_ar1: float

    @property
    def full_objective_wins(self) -> bool:
        return self.contrastive_only_loss > self.full_loss

    def lines(self) -> list[str]:
        return [f"full objective: loss {self.full_loss:.6f} ar@1 {self.full_ar1:.4f}",
                f"contrastive only: loss {self.contrastive_only_loss:.6f} "
                f"ar@1 {self.contrastive_only_ar1:.4f}",
                f"full objective wins: {self.full_objective_wins}"]


def loss_ablation(examples: Sequence[TrainExample],
                  config: TrainConfig) -> AblationReport:
    """Train with all losses and with the batch contrastive term alone, then
    score both parameter sets under the same default-weighted objective."""
    ablated = replace(config, weights=replace(config.weights, beta=0.0,
                                              gamma=0.0, delta=0.0))
    full_run = overfit_harness(examples, config)
    only_run = overfit_harness(examples, ablated)
    yardstick = LossWeights(tau=config.weights.tau)
    seed = eval_seed(config)
    full = total_loss_graph(examples, full_run.store, yardstick, config.encoder, seed).report
    only = total_loss_graph(examples, only_run.store, yardstick, config.encoder, seed).report
    return AblationReport(full_loss=full.total, contrastive_only_loss=only.total,
                          full_ar1=full_run.ar1, contrastive_only_ar1=only_run.ar1)


# ----------------------------------------------------------------------
# Prompt-template comparison

@dataclass
class TemplateReport:
    """AR@1 with and without the object noun prefixed to the query."""

    on_qs_ar1: float
    qs_only_ar1: float
    queries: int


def prompt_template_report(records: Sequence[CaptionRecord], store: ParamStore,
                           config: EncoderConfig) -> TemplateReport:
    """Compare noun-prefixed and bare-sentence queries over caption texts.

    Both sides run through the frozen text encoder: each record is indexed by
    its concatenated object nouns, and every object with a sentence caption
    queries for the records containing its noun.
    """
    ids = [r.image_id for r in records]
    index = build_index([encode_text(". ".join(o.noun for o in r.objects),
                                     store, config).vector
                         for r in records], ids)
    queries: dict[str, tuple[str, str]] = {}
    gt: dict[str, frozenset[str]] = {}
    for record in records:
        for i, obj in enumerate(record.objects):
            if len(obj.captions) < 2:
                continue
            qid = f"{record.image_id}:{i}"
            sentence = obj.captions[1]
            queries[qid] = (build_prompt(obj.noun, sentence), sentence)
            gt[qid] = frozenset(r.image_id for r in records
                                if any(o.noun == obj.noun for o in r.objects))
    if not queries:
        raise ValueError("no sentence captions to compare templates on")

    def ar1(which: int) -> float:
        rows = build_index([encode_text(queries[qid][which], store, config).vector
                            for qid in sorted(queries)], sorted(queries))
        results = batch_topk(rows, index, 1)
        return average_recall(results, GroundTruth(relevant=gt), 1).values[1]

    return TemplateReport(on_qs_ar1=ar1(0), qs_only_ar1=ar1(1),
                          queries=len(queries))
