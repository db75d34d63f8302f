"""Training loop, learning-rate schedule, and reproducible run manifests."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from .autodiff import EvaluationError, ParamStore, derive_seed, save_checkpoint
from .encoder import (EncoderConfig, check_field_types, image_embedding, init_params,
                      patch_shape, read_ppm)
from .objectives import (Annotation, AnnotationSet, LossReport, LossWeights,
                         TrainExample, format_loss_line, total_loss_graph)
from .promptgen import PROMPT_SEPARATOR, CaptionRecord, load_dataset, read_lines
from .retrieval import build_index

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


# Every key a config may set, split at its section as in ("weights", "tau").
_KEYS = frozenset([(f.name,) for f in fields(TrainConfig)
                   if f.name not in ("weights", "encoder")]
                  + [("weights", f.name) for f in fields(LossWeights)]
                  + [("encoder", f.name) for f in fields(EncoderConfig)])


def config_from_dict(data: dict) -> TrainConfig:
    """The config of a dict whose weights and encoder are dicts; a key no
    config has raises ValueError naming it dotted, as a config file spells it."""
    data = dict(data)
    weights = dict(data.pop("weights", {}))
    encoder = dict(data.pop("encoder", {}))
    keys = [(k,) for k in data] + [("weights", k) for k in weights] \
        + [("encoder", k) for k in encoder]
    for key in keys:
        if key not in _KEYS:
            raise ValueError(f"unknown key {'.'.join(key)}")
    if isinstance(encoder.get("slot_std"), list):
        encoder["slot_std"] = tuple(encoder["slot_std"])
    return TrainConfig(weights=LossWeights(**weights), encoder=EncoderConfig(**encoder),
                       **data)


def parse_config_file(path: str) -> TrainConfig:
    """Read `key = value` lines; weights.* and encoder.* reach the sub-configs."""
    data: dict = {"weights": {}, "encoder": {}}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
        key, text = (part.strip() for part in line.split("=", 1))
        parts = tuple(key.split(".", 1))
        if parts not in _KEYS:
            raise ValueError(f"{path}: line {lineno}: unknown key {key}")
        target = data[parts[0]] if len(parts) == 2 else data
        try:
            target[parts[-1]] = json.loads(text)
        except json.JSONDecodeError:
            raise ValueError(f"{path}: line {lineno}: bad value {text!r}")
    try:
        return config_from_dict(data)
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
        try:
            examples.append(TrainExample(image=images[record.image_id],
                                         annotations=AnnotationSet(annotations)))
        except ValueError as exc:
            raise ValueError(f"image {record.image_id!r}: {exc}") from exc
    return examples


def load_image_dir(records: Sequence[CaptionRecord], data_dir: str,
                   config: EncoderConfig | None = None) -> dict[str, Array]:
    """Read {image_id}.ppm for every record of data_dir's dataset.jsonl; an image that
    cannot be read, or that config cannot patch, raises ValueError naming its file."""
    images = {}
    for r in records:
        path = os.path.join(data_dir, f"{r.image_id}.ppm")
        try:
            images[r.image_id] = image = read_ppm(path)
        except OSError as exc:
            raise ValueError(f"{os.path.join(data_dir, 'dataset.jsonl')}: image "
                             f"{r.image_id!r}: {exc}") from exc
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


def train_on_examples(examples: Sequence[TrainExample],
                      config: TrainConfig) -> tuple[ParamStore, list[LossReport]]:
    """Run the step budget from the seeded initial parameters, in memory.
    With no examples an epoch has no batches, so ValueError."""
    if not examples:
        raise ValueError("no training examples")
    store = init_params(config.encoder, seed=derive_seed(config.seed, "init", 0))
    reports: list[LossReport] = []
    step = 0
    epoch = 0
    while step < config.total_steps:
        for batch_indices in batches_for_epoch(len(examples), config, epoch):
            if step >= config.total_steps:
                break
            batch = [examples[i] for i in batch_indices]
            reports.append(train_step(store, batch, config, step))
            step += 1
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


def load_examples(data_dir: str,
                  config: TrainConfig) -> tuple[list[CaptionRecord], list[TrainExample]]:
    """A dataset directory's records and their training examples; an image
    the encoder cannot patch raises ValueError naming the file."""
    dataset_path = os.path.join(data_dir, "dataset.jsonl")
    records = load_dataset(dataset_path)
    images = load_image_dir(records, data_dir, config.encoder)
    try:
        return records, dataset_examples(records, images)
    except ValueError as exc:
        raise ValueError(f"{dataset_path}: {exc}") from exc


def train(data_dir: str, config: TrainConfig, out_dir: str) -> RunManifest:
    """Train from a dataset directory and write checkpoint, log, manifest."""
    records, examples = load_examples(data_dir, config)
    store, reports = train_on_examples(examples, config)

    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, "checkpoint.lzp")
    losses_path = os.path.join(out_dir, "losses.log")
    save_checkpoint(store, checkpoint_path)
    with open(losses_path, "w", encoding="utf-8") as fh:
        for step, report in enumerate(reports):
            fh.write(format_loss_line(step, report) + "\n")
    inputs = [os.path.join(data_dir, "dataset.jsonl")] + [
        os.path.join(data_dir, f"{r.image_id}.ppm") for r in records]
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


def embed_images(images: Iterable[Array], ids: Sequence[str],
                 store: ParamStore, config: TrainConfig):
    """Deterministic image embeddings for evaluation (fixed slot seed)."""
    seed = eval_seed(config)
    rows = [image_embedding(image, store, config.encoder, seed=seed)[0].vector
            for image in images]
    return build_index(rows, ids)


def canonical_caption(example: TrainExample) -> str:
    """Stored-order concatenation of the example's captions."""
    return PROMPT_SEPARATOR.join(example.annotations.captions())
