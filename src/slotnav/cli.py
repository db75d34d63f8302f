"""Command-line surface: training, indexing, retrieval, augmentation, nav eval."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Any, Callable, Sequence

import numpy as np

from .autodiff import EvaluationError, ParamStore, derive_seed, load_checkpoint
from .encoder import EncoderConfig, encode_text, init_params, param_specs
from .fixtures import write_fixture_bundle
from .harness import (RunManifest, TrainConfig, config_from_dict,
                      dataset_examples, embed_images, load_image_dir,
                      parse_config_file, train)
from .navsim import (FovParams, MemoryEntry, execute_episode, load_world,
                     save_episode_log, success_rate)
from .objectives import (Annotation, AnnotationSet, LossWeights, TrainExample,
                         total_loss_graph)
from .promptgen import (convert_detection_dataset, load_dataset, pose_from_json,
                        read_jsonl, save_dataset)
from .retrieval import (EmbeddingIndex, average_recall, batch_topk, load_ground_truth,
                        load_index, query_scores, save_index, top_rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotnav",
        description="Object-centric retrieval training and navigation evaluation.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured random seed")
    parser.add_argument("--config", default=None,
                        help="key = value training configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train from a dataset directory")
    p.add_argument("--data", required=True, help="directory with dataset.jsonl and PPMs")
    p.add_argument("--out", required=True, help="output directory for run artifacts")
    p.add_argument("--preset", choices=("overfit", "reference"), default=None)

    p = sub.add_parser("index", help="embed a dataset with a trained checkpoint")
    p.add_argument("--run", required=True, help="training output directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="embedding index file to write")

    p = sub.add_parser("retrieve", help="top-k lookup against an embedding index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", default=None, help="query embedding index file")
    p.add_argument("--query", default=None, help="free-text query (needs --run)")
    p.add_argument("--run", default=None, help="training output directory")
    p.add_argument("-k", type=int, default=1)

    p = sub.add_parser("eval-retrieval", help="AR@k against a ground-truth file")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--ks", default="1", help="comma-separated cutoffs")

    p = sub.add_parser("augment", help="detection lines to multi-label captions")
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=1,
                   help="generated captions per object")

    p = sub.add_parser("nav-eval", help="run navigation episodes over a memory")
    p.add_argument("--world", required=True)
    p.add_argument("--memory", required=True, help="memory embedding index")
    p.add_argument("--poses", required=True, help="JSONL of memory poses")
    p.add_argument("--queries", required=True, help="JSONL of query records")
    p.add_argument("--query-index", default=None,
                   help="precomputed query embeddings")
    p.add_argument("--run", default=None,
                   help="training output directory for text-encoder queries")
    p.add_argument("--cell-m", type=float, default=0.25)
    p.add_argument("--k", type=int, default=None, help="override per-query k")
    p.add_argument("--radii", default="1.0,2.0")
    p.add_argument("--half-angle", type=float, default=None)
    p.add_argument("--max-range", type=float, default=None)
    p.add_argument("--no-occlusion", action="store_true")
    p.add_argument("--log", default=None, help="episode JSONL to write")

    p = sub.add_parser("gradcheck", help="finite-difference check on the objective")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--slots", type=int, default=2)
    p.add_argument("--iters", type=int, default=2)
    p.add_argument("--images", type=int, default=1)
    p.add_argument("--tolerance", type=float, default=1e-4)

    p = sub.add_parser("fixtures", help="write the bundled fixture files")
    p.add_argument("--out", required=True)
    return parser


# ----------------------------------------------------------------------
# Shared plumbing

def _train_config(args) -> TrainConfig:
    if args.config is not None:
        config = parse_config_file(args.config)
    elif getattr(args, "preset", None) == "overfit":
        config = TrainConfig.overfit_preset()
    elif getattr(args, "preset", None) == "reference":
        config = TrainConfig.reference_preset()
    else:
        config = TrainConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _load_run(run_dir: str) -> tuple[ParamStore, TrainConfig]:
    """The run's checkpoint and config; a malformed manifest, or a checkpoint
    whose tensor names or shapes differ from the config's, raises ValueError
    naming the file."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    manifest = RunManifest.load(manifest_path)
    try:
        config = config_from_dict(manifest.config)
        specs = param_specs(config.encoder)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: bad config ({exc})") from exc
    path = os.path.join(run_dir, manifest.checkpoint)
    params = load_checkpoint(path)
    for name, shape, _, _ in specs:
        got = params[name].shape if name in params else "missing"
        if got != shape:
            raise ValueError(f"{path}: tensor {name} is {got}, "
                             f"but the run's config needs {shape}")
    names = [name for name, _, _, _ in specs]
    for name in params:
        if name not in names:
            raise ValueError(f"{path}: tensor {name} is not in the run's config")
    return ParamStore({name: params[name] for name in names},
                      frozen=[name for name, _, frozen, _ in specs if frozen]), config


def _same_width(dim: int, source: str, index: EmbeddingIndex, path: str) -> None:
    """ValueError naming source and path unless index's rows have dim entries."""
    if dim != index.dim:
        raise ValueError(f"{source} has dimension {dim}, but {path} has {index.dim}")


# ----------------------------------------------------------------------
# Subcommands

def cmd_train(args) -> int:
    config = _train_config(args)
    manifest = train(args.data, config, args.out)
    print(f"steps {manifest.steps}")
    print(f"final_loss {manifest.final_loss:.6f}")
    print(f"input_hash {manifest.input_hash}")
    print(f"checkpoint {os.path.join(args.out, manifest.checkpoint)}")
    print(f"manifest {os.path.join(args.out, 'manifest.json')}")
    return 0


def cmd_index(args) -> int:
    store, config = _load_run(args.run)
    dataset_path = os.path.join(args.data, "dataset.jsonl")
    records = load_dataset(dataset_path)
    if not records:
        raise ValueError(f"{dataset_path}: no records")
    # One image in memory at a time, so memory does not grow with the corpus.
    examples = (dataset_examples([r], load_image_dir([r], args.data, config.encoder))[0]
                for r in records)
    index = embed_images(examples, [r.image_id for r in records], store, config)
    save_index(index, args.out)
    print(f"indexed {len(records)}")
    print(f"index {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    if args.k < 1:
        raise ValueError(f"-k: must be at least 1, got {args.k}")
    if (args.queries is None) == (args.query is None):
        raise ValueError("pass exactly one of --queries or --query")
    if args.query is not None and args.run is None:
        raise ValueError("--query needs --run for the text encoder")
    index = load_index(args.index)
    if args.query is not None:
        store, config = _load_run(args.run)
        _same_width(config.encoder.dim, f"the text encoder of run {args.run}", index, args.index)
        rows = {"query": encode_text(args.query, store, config.encoder).vector}
    else:
        queries = load_index(args.queries)
        _same_width(queries.dim, args.queries, index, args.index)
        rows = dict(zip(queries.ids, queries.matrix))
    for qid, vector in rows.items():
        scores = query_scores(vector, index)
        for rank, i in enumerate(top_rows(scores, index.ids, min(args.k, len(index)))):
            print(f"{qid} {rank + 1} {index.ids[i]} {scores[i]:.6f}")
    return 0


def cmd_eval_retrieval(args) -> int:
    ks = sorted(set(_flag_list("--ks", args.ks, int, lambda k: k >= 1,
                               "an integer of at least 1")))
    index = load_index(args.index)
    if ks[-1] > len(index):
        raise ValueError(f"--ks: {ks[-1]} exceeds the index's {len(index)} items")
    queries = load_index(args.queries)
    _same_width(queries.dim, args.queries, index, args.index)
    gt = load_ground_truth(args.gt, index=index)
    results = batch_topk(queries, index, ks[-1])
    report = average_recall(results, gt, ks)
    for k in ks:
        print(f"ar@{k} {report.values[k]:.6f}")
    print(f"queries {len(queries.ids)}")
    return 0


def cmd_augment(args) -> int:
    report = convert_detection_dataset(args.detections, args.count, seed=args.seed or 0)
    save_dataset(report.records, args.out)
    for lineno, message in report.errors:
        print(f"skipped {args.detections}: line {lineno}: {message}", file=sys.stderr)
    print(f"records {len(report.records)}")
    print(f"captions {report.generated_captions}")
    print(f"errors {len(report.errors)}")
    print(f"dataset {args.out}")
    return 0


def _fov_params(args) -> FovParams:
    """The camera model the flags give; a bad value raises ValueError naming
    its flag."""
    fov = FovParams(occlusion=not args.no_occlusion)
    for flag, name in (("--half-angle", "half_angle"), ("--max-range", "max_range")):
        if getattr(args, name) is not None:
            try:
                fov = replace(fov, **{name: getattr(args, name)})
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    return fov


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0.0


def _flag_list(flag: str, text: str, parse: Callable[[str], Any],
               valid: Callable[[Any], bool], noun: str) -> list:
    """A comma-separated flag value, each item parsed and valid; else a
    ValueError naming the flag."""
    items = []
    for part in filter(str.strip, text.split(",")):
        try:
            item = parse(part)
            ok = valid(item)
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{flag}: {part.strip()!r} is not {noun}")
        items.append(item)
    if not items:
        raise ValueError(f"{flag}: no values given")
    return items


def _k(value) -> int:
    """A retrieval depth: an integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"k must be an integer of at least 1, got {value!r}")
    return value


def cmd_nav_eval(args) -> int:
    radii = _flag_list("--radii", args.radii, float, _finite_positive,
                       "a finite positive number")
    if args.k is not None and args.k < 1:
        raise ValueError(f"--k: must be at least 1, got {args.k}")
    if not _finite_positive(args.cell_m):
        raise ValueError(f"--cell-m: {args.cell_m!r} is not a finite positive number")
    if (args.query_index is None) == (args.run is None):
        raise ValueError("pass exactly one of --query-index or --run")
    fov = _fov_params(args)
    world = load_world(args.world, cell_m=args.cell_m)
    memory_index = load_index(args.memory)
    poses = dict(read_jsonl(args.poses, lambda r: (r["image_id"], pose_from_json(r["pose"]))))
    entries = []
    for i, image_id in enumerate(memory_index.ids):
        if image_id not in poses:
            raise ValueError(f"{args.poses}: no pose for memory id {image_id!r}")
        entries.append(MemoryEntry(image_id=image_id, pose=poses[image_id],
                                   embedding=memory_index.matrix[i]))

    def query(r):
        if not world.objects_named(r["noun"]):
            raise ValueError(f"{args.world} has no object named {r['noun']!r}")
        return (r["query_id"], r["noun"], r.get("sentence", ""),
                args.k if args.k is not None else _k(r.get("k", 1)),
                pose_from_json(r["start"]))

    queries = read_jsonl(args.queries, query)
    if not queries:
        raise ValueError(f"{args.queries}: no records")
    if args.query_index is not None:
        query_index = load_index(args.query_index)
        _same_width(query_index.dim, args.query_index, memory_index, args.memory)
        rows = {qid: query_index.matrix[i]
                for i, qid in enumerate(query_index.ids)}

        def encode_for(query_id):
            if query_id not in rows:
                raise ValueError(f"{args.query_index}: no embedding for {query_id!r}")
            return lambda _prompt: rows[query_id]
    else:
        store, config = _load_run(args.run)
        _same_width(config.encoder.dim, f"the text encoder of run {args.run}",
                    memory_index, args.memory)

        def encode_for(_query_id):
            return lambda prompt: encode_text(prompt, store, config.encoder).vector

    episodes = []
    for query_id, noun, sentence, k, start in queries:
        episode = execute_episode(sentence, noun, entries, world, k,
                                  encode_for(query_id), start, fov=fov)
        episodes.append(episode)
        print(f"episode {query_id} distance {episode.distance:.4f} "
              f"fov {str(episode.object_in_fov).lower()} "
              f"visited {len(episode.visited)} path_cells {episode.path_cells}")

    for radius in radii:
        report = success_rate(episodes, radius)
        print(f"sr@{radius:g}m {report.success_rate:.6f}")
    print(f"fov_rate {success_rate(episodes, radii[0]).fov_rate:.6f}")
    print(f"episodes {len(episodes)}")
    if args.log:
        save_episode_log(episodes, args.log)
        print(f"log {args.log}")
    return 0


def cmd_gradcheck(args) -> int:
    config = EncoderConfig(dim=args.dim, slot_dim=args.dim, num_slots=args.slots,
                           slot_iters=args.iters, patch_size=8, heads=2,
                           mlp_ratio=2, max_tokens=16, text_vocab=32, text_len=8)
    seed = args.seed if args.seed is not None else 0
    store = init_params(config, seed=derive_seed(seed, "init", 0))
    rng = np.random.default_rng(derive_seed(seed, "gradcheck", 0))
    examples = []
    for i in range(args.images):
        image = rng.uniform(size=(16, 16, 3))
        examples.append(TrainExample(image=image, annotations=AnnotationSet((
            Annotation(caption=f"object {i} a", box=[0.1, 0.1, 0.5, 0.5]),
            Annotation(caption=f"object {i} b", box=[0.5, 0.4, 0.9, 0.9])))))
    built = total_loss_graph(examples, store, LossWeights(), config,
                             seed=derive_seed(seed, "step", 0))
    report = built.graph.finite_difference_check(
        built.total, parameters=store.trainable_names(),
        tolerance=args.tolerance, frame=built.frame)
    print(f"max_relative_error {report.max_relative_error:.6e}")
    print(f"checked {report.checked_coordinates}")
    print(f"skipped {report.skipped_coordinates}")
    worst = report.worst
    if worst is not None:
        print(f"worst {worst.parameter}[{', '.join(map(str, worst.coordinate))}] "
              f"analytic {worst.analytic:.6e} numeric {worst.numeric:.6e}")
    print(f"passed {str(report.passed).lower()}")
    return 0 if report.passed else 1


def cmd_fixtures(args) -> int:
    paths = write_fixture_bundle(args.out)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "index": cmd_index,
    "retrieve": cmd_retrieve,
    "eval-retrieval": cmd_eval_retrieval,
    "augment": cmd_augment,
    "nav-eval": cmd_nav_eval,
    "gradcheck": cmd_gradcheck,
    "fixtures": cmd_fixtures,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
