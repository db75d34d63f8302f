"""The benchmark's workloads and the runner that times, traces and checks them.

Every workload runs the program in this process, as its users run it: CLI
commands through `slotnav.cli.main`, and the serving calls that `retrieve`
and `nav-eval --run` make, from one closed-loop client.  A round of the
measured phase repeats until `seconds` have passed; the sizes below make
one round longer than the committed run length, so each run is one round.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from slotnav import cli, encoder, harness, navsim, objectives, retrieval
from slotnav.autodiff import derive_seed
from slotnav.encoder import TEXT_PREFIX, EncoderConfig, init_params, read_ppm
from slotnav.objectives import Annotation, AnnotationSet, LossWeights, TrainExample
from slotnav.promptgen import Pose

import checks
import inputs
import speed
import tracing

CELL_M = 0.25
QUERY_K = 10
RECALL_KS = (1, 5, 10)
# Serve's query session runs this many times per round; a query's latency is
# its fastest pass, so that stalls of the shared host, which rarely hit the
# same query in every pass, drop out of the tail.
QUERY_PASSES = 3
RADII = (0.5, 1.0, 2.0, 3.0)
# In-memory embeddings compared against their LZE1 rows, per run.
EMBEDDING_SAMPLE = 32
# Set-ups repeat at least `Sizes.setup_repeats` times and until this much
# set-up time has passed, so that a set-up of a few milliseconds still gets
# a steady median.
SETUP_MIN_S = 0.5


@dataclass(frozen=True)
class Sizes:
    """How much work one round does; FULL is what the benchmark runs."""

    setup_repeats: int = 3
    train_steps: int | None = None  # None: the overfit preset's 400 steps
    gradcheck_encoder: tuple = ()  # EncoderConfig overrides
    short_train_steps: int = 5
    serve_images: int = 1500
    serve_queries: int = 1000
    nav_images: int = 600
    nav_episodes: int = 480
    nav_layouts: int = 48
    grid_side: int = 96
    clutter: float = 0.12
    instances_per_noun: int = 4


FULL = Sizes()


@dataclass
class Context:
    """Run-wide settings plus the request id and phase the tracer reads."""

    seed: int
    seconds: float
    sizes: Sizes
    workdir: str
    state_dir: str
    request: int = 0
    phase: str = "setup"
    speed: speed.Speed = field(default_factory=speed.Speed)


@dataclass
class Ops:
    """Operation times and the time spent probing speed between them.

    `mids[i]` is when operation i was half done; scaling uses the kernel
    samples around it.  Operations timed without the kernel between them
    (mids None) are not scaled.
    """

    phase: str = "measure"
    raw: list[float] = field(default_factory=list)
    mids: list[float] | None = field(default_factory=list)
    probe_s: float = 0.0

    def add(self, ctx: Context, took: float) -> None:
        self.raw.append(took)
        self.mids.append(perf_counter() - took / 2)
        self.probe_s += ctx.speed.after(took, self.phase)

    def scaled(self, ctx: Context) -> list[float]:
        if self.mids is None:
            return list(self.raw)
        return [took * ctx.speed.factor(self.phase, at=mid)
                for took, mid in zip(self.raw, self.mids)]

    def span_s(self, ctx: Context, wall: float) -> tuple[float, float]:
        """A span of `wall` seconds holding these operations, probes left
        out: raw, and with the operations scaled (the rest stays raw)."""
        busy = wall - self.probe_s
        return busy, busy - sum(self.raw) + sum(self.scaled(ctx))


@dataclass
class Measured:
    """What the measured phase produced, before its outputs are checked.

    Throughput is `items` over the `busy_s` seconds spent on them, less the
    probes of `busy_ops`, the operations timed inside that span.  Latency
    percentiles are over `ops`; when `distinct` is set, `ops` repeats the
    same `distinct` operations, and each counts with its fastest time.
    """

    items: int
    busy_s: float
    busy_ops: Ops
    ops: Ops
    attempted: int
    failed: int = 0
    session_s: float = 0.0  # serving start-up after the measured indexing
    distinct: int | None = None
    outputs: list = field(default_factory=list)


def call(argv: list[str]) -> str:
    """Run one slotnav command in this process; return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"slotnav {' '.join(argv)} exited {code}: "
                           f"{err.getvalue().strip()}")
    return out.getvalue()


@contextlib.contextmanager
def probing(ctx: Context, owner, attr: str, ops: Ops, new_request: bool = False):
    """Swap owner.attr for a wrapper that adds each call to `ops`, which
    times the speed kernel between calls; restore it on exit."""
    original = getattr(owner, attr)

    def probed(*args, **kwargs):
        if new_request:
            ctx.request += 1
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            ops.add(ctx, perf_counter() - start)

    setattr(owner, attr, probed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def rounds(seconds: float):
    """Round numbers from 0 until `seconds` have passed; at least one."""
    start = perf_counter()
    n = 0
    while True:
        yield n
        n += 1
        if perf_counter() - start >= seconds:
            return


def write_train_config(path: str, steps: int) -> None:
    """The overfit preset as a config file, with its step budget replaced
    (and its warmup cut to fit inside it)."""
    preset = harness.TrainConfig.overfit_preset()
    with open(path, "w", encoding="utf-8") as fh:
        for key in ("lr", "decay", "batch_size", "seed"):
            fh.write(f"{key} = {json.dumps(getattr(preset, key))}\n")
        fh.write(f"warmup_steps = {min(preset.warmup_steps, steps)}\n")
        fh.write(f"total_steps = {steps}\n")


def trained_run(root: str, steps: int) -> str:
    """Fixture bundle plus a short overfit run; returns the run directory."""
    fixtures, run, config = (os.path.join(root, n) for n in ("fixtures", "run", "train.cfg"))
    call(["fixtures", "--out", fixtures])
    write_train_config(config, steps)
    call(["--config", config, "train", "--data", fixtures, "--out", run])
    return run


# ----------------------------------------------------------------------
# train: `slotnav train --preset overfit` on the bundled fixture


class _FirstStep(BaseException):
    """Ends a `train` command at its first step; a BaseException, so that
    the command's own error handling lets it through."""


def _stop(*args, **kwargs):
    raise _FirstStep


class Train:
    # The fixture bundle is the input, written once and not timed, as the
    # other workloads' generated inputs are: on a 2-vCPU Xeon host, writing
    # its 19 small files took from 3 to 13 ms, following the state of the
    # file system rather than the program.
    def prepare(self, ctx: Context, root: str) -> dict:
        fixtures = os.path.join(root, "fixtures")
        call(["fixtures", "--out", fixtures])
        return {"fixtures": fixtures}

    def setup(self, ctx: Context, root: str, given: dict) -> dict:
        """The `train` command up to its first step: reading the dataset and
        its images, and the initial parameters."""
        os.makedirs(root)
        original, harness.train_step = harness.train_step, _stop
        try:
            call(["train", "--preset", "overfit", "--data", given["fixtures"],
                  "--out", os.path.join(root, "run")])
        except _FirstStep:
            pass
        finally:
            harness.train_step = original
        return {"root": root, "fixtures": given["fixtures"]}

    def measure(self, ctx: Context, state: dict) -> Measured:
        steps = ctx.sizes.train_steps
        extra = []
        if steps is not None:
            extra = ["--config", os.path.join(state["root"], "train.cfg")]
            write_train_config(extra[1], steps)
        steps_done = Ops()
        runs, wall = [], 0.0
        with probing(ctx, harness, "train_step", steps_done, new_request=True):
            for r in rounds(ctx.seconds):
                out = os.path.join(state["root"], f"run{r}")
                argv = extra + ["train", "--data", state["fixtures"], "--out", out]
                if steps is None:
                    argv += ["--preset", "overfit"]
                start = perf_counter()
                call(argv)
                wall += perf_counter() - start
                runs.append(out)
        batch = harness.RunManifest.load(os.path.join(runs[0], "manifest.json")) \
            .config["batch_size"]
        return Measured(items=len(steps_done.raw) * batch,
                        busy_s=wall, busy_ops=steps_done,
                        ops=steps_done, attempted=len(steps_done.raw), outputs=runs)

    def check(self, ctx: Context, state: dict, measured: Measured) -> list[str]:
        run = measured.outputs[0]
        store, config = cli._load_run(run)
        problems = []
        with open(os.path.join(run, "losses.log"), encoding="utf-8") as fh:
            lines = fh.readlines()
        problems += checks.loss_log_failures(lines, harness.config_to_dict(config)["weights"],
                                             config.total_steps)
        fresh = init_params(config.encoder, seed=derive_seed(config.seed, "init", 0))
        text_names = [n for n in fresh.names() if n.startswith(TEXT_PREFIX)]
        if [n for n in store.names() if n.startswith(TEXT_PREFIX)] != text_names or any(
                store[n].tobytes() != fresh[n].tobytes() for n in text_names):
            problems.append("txt.* tensors differ from a fresh init_params")

        if ctx.sizes.train_steps is None:
            problems += self._overfit_recall(state, store, config)
        digests = set()
        for out in measured.outputs:
            with open(os.path.join(out, "checkpoint.lzp"), "rb") as fh:
                digests.add(hashlib.sha256(fh.read()).hexdigest())
        problems += _same_checkpoint(ctx.state_dir, config, digests)
        return problems

    @staticmethod
    def _overfit_recall(state: dict, store, config) -> list[str]:
        """The overfit preset's promise: every caption retrieves its image."""
        records = harness.load_dataset(os.path.join(state["fixtures"], "dataset.jsonl"))
        examples = harness.dataset_examples(
            records, harness.load_image_dir(records, state["fixtures"]))
        seed = harness.eval_seed(config)
        image_rows = np.stack([encoder.image_embedding(e.image, store, config.encoder,
                                                       seed=seed)[0].vector
                               for e in examples])
        text_rows = np.stack([encoder.encode_text(harness.canonical_caption(e), store,
                                                  config.encoder).vector
                              for e in examples])
        ar1 = checks.self_retrieval_ar1(image_rows, text_rows)
        return [] if ar1 == 1.0 else [f"training-set AR@1 is {ar1}, expected 1.0"]


def _program_digest() -> str:
    """SHA-256 of the slotnav package's files, names and contents."""
    package = os.path.dirname(os.path.abspath(cli.__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        path = os.path.join(package, name)
        if os.path.isfile(path):
            digest.update(name.encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _same_checkpoint(state_dir: str, config, digests: set[str]) -> list[str]:
    """Compare checkpoint hashes within this run and with earlier runs of the
    same program sources and configuration in this checkout (kept under
    state_dir).  A change to the program may change the checkpoint's last
    bits; it is compared only with runs of itself."""
    if len(digests) != 1:
        return [f"checkpoint hashes differ between rounds: {sorted(digests)}"]
    key = hashlib.sha256(json.dumps([_program_digest(), harness.config_to_dict(config)],
                                    sort_keys=True).encode()).hexdigest()[:16]
    path = os.path.join(state_dir, "train_checkpoints.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    digest = digests.pop()
    if known.setdefault(key, digest) != digest:
        return [f"checkpoint hash {digest} differs from an earlier run's {known[key]}"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return []


# ----------------------------------------------------------------------
# gradcheck: the full-objective finite-difference sweep of the acceptance gate


def _random_box(rng: np.random.Generator) -> np.ndarray:
    x1, y1 = rng.random(2) * 0.8
    w, h = 0.05 + rng.random(2) * 0.95
    return np.array([x1, y1, min(x1 + w, 1.0), min(y1 + h, 1.0)])


def _desk_example(seed: int, captions: list[str]) -> TrainExample:
    image = np.random.default_rng(seed).random((8, 8, 3))
    anns = tuple(Annotation(caption=c, box=_random_box(np.random.default_rng(seed + 7)))
                 for c in captions)
    return TrainExample(image=image, annotations=AnnotationSet(anns))


class Gradcheck:
    step = 1e-5
    tolerance = 1e-4

    def prepare(self, ctx: Context, root: str) -> dict:
        return {}

    def setup(self, ctx: Context, root: str, given: dict) -> dict:
        config = EncoderConfig(patch_size=4, max_tokens=4, **dict(ctx.sizes.gradcheck_encoder))
        store = init_params(config, seed=2)
        batch = [_desk_example(10, ["red sofa", "green lamp"]),
                 _desk_example(11, ["wooden table", "white mirror"])]
        built = objectives.total_loss_graph(batch, store, LossWeights(tau=0.5), config, seed=3)
        return {"store": store, "built": built}

    def measure(self, ctx: Context, state: dict) -> Measured:
        built = state["built"]
        reports, walls = [], []
        for _ in rounds(ctx.seconds):
            ctx.request += 1
            start = perf_counter()
            reports.append(built.graph.finite_difference_check(
                built.total, step=self.step, tolerance=self.tolerance))
            walls.append(perf_counter() - start)
        # The sweep stays unscaled: it is one call with no room for the speed
        # kernel inside it, and scaling it by the kernel timed just before
        # and after it widened its spread over ten runs on a 2-vCPU Xeon
        # host from 4% to 34%: the kernel's speed does not track the sweep's.
        sweeps = Ops(raw=walls, mids=None)
        store = state["store"]
        coordinates = sum(store[n].size for n in store.trainable_names())
        return Measured(items=sum(r.checked_coordinates for r in reports),
                        busy_s=sum(walls), busy_ops=sweeps, ops=sweeps,
                        attempted=coordinates * len(reports),
                        failed=sum(r.skipped_coordinates for r in reports),
                        outputs=reports)

    def check(self, ctx: Context, state: dict, measured: Measured) -> list[str]:
        store = state["store"]
        coordinates = sum(store[n].size for n in store.trainable_names())
        problems = []
        for report in measured.outputs:
            problems += checks.gradcheck_failures(report, coordinates, self.tolerance)
        return problems


# ----------------------------------------------------------------------
# serve: index a generated corpus, then answer text queries against it


class Serve:
    def prepare(self, ctx: Context, root: str) -> dict:
        rng = np.random.default_rng([ctx.seed, 1])
        corpus = os.path.join(root, "corpus")
        images = inputs.write_corpus(rng, ctx.sizes.serve_images, corpus)
        return {"corpus": corpus, "images": images,
                "queries": inputs.household_queries(rng, ctx.sizes.serve_queries)}

    def setup(self, ctx: Context, root: str, given: dict) -> dict:
        return {**given, "root": root,
                "run": trained_run(root, ctx.sizes.short_train_steps)}

    def measure(self, ctx: Context, state: dict) -> Measured:
        index_path = os.path.join(state["root"], "corpus.lze")
        embeds, queries = Ops(), Ops()
        index_s, session_s, answers = 0.0, [], []
        for _ in rounds(ctx.seconds):
            with probing(ctx, harness, "image_embedding", embeds):
                start = perf_counter()
                call(["index", "--run", state["run"], "--data", state["corpus"],
                      "--out", index_path])
                index_s += perf_counter() - start

            # Session start, as `retrieve --run` does it; counted as set-up.
            ctx.phase = "setup"
            start = perf_counter()
            store, config = cli._load_run(state["run"])
            index = retrieval.load_index(index_path)
            session_s.append(perf_counter() - start)
            ctx.phase = "measure"

            for _ in range(QUERY_PASSES):
                for text in state["queries"]:
                    ctx.request += 1
                    start = perf_counter()
                    vector = encoder.encode_text(text, store, config.encoder).vector
                    top = retrieval.topk_images(vector, index, QUERY_K)
                    queries.add(ctx, perf_counter() - start)
                    answers.append((vector, top))
        return Measured(items=len(embeds.raw), busy_s=index_s,
                        busy_ops=embeds, ops=queries,
                        attempted=len(embeds.raw) + len(answers),
                        session_s=statistics.median(session_s),
                        distinct=len(state["queries"]),
                        outputs=[index_path, store, config, answers])

    def check(self, ctx: Context, state: dict, measured: Measured) -> list[str]:
        index_path, store, config, answers = measured.outputs
        images, queries = state["images"], state["queries"]
        rows, ids = checks.read_lze(index_path)
        rng = np.random.default_rng([ctx.seed, 3])
        sample = rng.choice(len(images), size=min(EMBEDDING_SAMPLE, len(images)),
                            replace=False)
        embeddings = {}
        for i in sample:
            image_id = images[i].image_id
            pixels = read_ppm(os.path.join(state["corpus"], f"{image_id}.ppm"))
            embeddings[image_id] = encoder.image_embedding(
                pixels, store, config.encoder, seed=harness.eval_seed(config))[0].vector
        problems = checks.index_failures(rows, ids, [im.image_id for im in images],
                                         embeddings)

        unit = checks.unit_rows(rows)
        first = answers[:len(queries)]
        program, oracle, relevant = {}, {}, {}
        for n, (text, (vector, top)) in enumerate(zip(queries, first)):
            qid = f"q{n:04d}"
            scores = unit @ vector
            problem = checks.topk_problem(top, scores, ids, QUERY_K)
            if problem:
                problems.append(f"query {n} {text!r}: {problem}")
            program[qid] = top
            oracle[qid] = checks.oracle_topk(scores, ids, QUERY_K)
            noun = text.split(".")[0]
            relevant[qid] = frozenset(im.image_id for im in images if noun in im.nouns)
        for n, (vector, top) in enumerate(answers[len(queries):]):
            if top != first[n % len(queries)][1]:
                problems.append(f"query {n % len(queries)} answered differently "
                                "in a later pass")
        report = retrieval.average_recall(
            program, retrieval.GroundTruth(relevant=relevant), list(RECALL_KS))
        problems += checks.recall_failures(report.values,
                                           checks.average_recall(oracle, relevant, RECALL_KS))
        return problems


# ----------------------------------------------------------------------
# navigate: the episodes of `nav-eval --run` over an indexed memory


class Navigate:
    def prepare(self, ctx: Context, root: str) -> dict:
        sizes = ctx.sizes
        rng = np.random.default_rng([ctx.seed, 2])
        world = inputs.make_world(rng, sizes.grid_side, sizes.clutter,
                                  sizes.instances_per_noun)
        os.makedirs(root, exist_ok=True)
        world_path = os.path.join(root, "world.txt")
        with open(world_path, "w", encoding="utf-8") as fh:
            fh.write(world.text())
        corpus = os.path.join(root, "memory")
        inputs.write_corpus(rng, sizes.nav_images, corpus)
        # The memory is placed at fresh poses for each block of episodes:
        # rankings from a lightly trained model keep returning the same few
        # images, so one layout would make planning cost hinge on where
        # those few happen to lie.
        layouts = [inputs.random_poses(rng, world, sizes.nav_images, CELL_M)
                   for _ in range(sizes.nav_layouts)]
        return {"world": world, "world_path": world_path, "corpus": corpus,
                "layouts": layouts,
                "specs": inputs.episode_specs(rng, world, sizes.nav_episodes, CELL_M)}

    def setup(self, ctx: Context, root: str, given: dict) -> dict:
        run = trained_run(root, ctx.sizes.short_train_steps)
        memory_path = os.path.join(root, "memory.lze")
        call(["index", "--run", run, "--data", given["corpus"], "--out", memory_path])
        # Session start, as `nav-eval --run` does it.
        nav_world = navsim.load_world(given["world_path"], cell_m=CELL_M)
        memory = retrieval.load_index(memory_path)
        entries = [[navsim.MemoryEntry(image_id=image_id, pose=Pose(*pose),
                                       embedding=memory.matrix[i])
                    for i, (image_id, pose) in enumerate(zip(memory.ids, layout))]
                   for layout in given["layouts"]]
        store, config = cli._load_run(run)
        return {**given, "nav_world": nav_world, "memory_path": memory_path,
                "entries": entries, "store": store, "config": config}

    def measure(self, ctx: Context, state: dict) -> Measured:
        store, config = state["store"], state["config"]
        fov = navsim.FovParams()
        vectors, episodes, runs = [], [], Ops()

        def encode(prompt: str) -> np.ndarray:
            vector = encoder.encode_text(prompt, store, config.encoder).vector
            vectors.append(vector)
            return vector

        for _ in rounds(ctx.seconds):
            for n, spec in enumerate(state["specs"]):
                ctx.request += 1
                memory = state["entries"][n * len(state["entries"]) // len(state["specs"])]
                start = perf_counter()
                episodes.append(navsim.execute_episode(
                    spec.sentence, spec.noun, memory, state["nav_world"],
                    spec.k, encode, Pose(*spec.start), fov=fov))
                runs.add(ctx, perf_counter() - start)
        count = len(state["specs"])
        success = {r: navsim.success_rate(episodes[:count], r).success_rate for r in RADII}
        return Measured(items=len(episodes), busy_s=sum(runs.raw) + runs.probe_s,
                        busy_ops=runs, ops=runs,
                        attempted=len(episodes),
                        outputs=[episodes, vectors, success, fov])

    def check(self, ctx: Context, state: dict, measured: Measured) -> list[str]:
        episodes, vectors, success, fov = measured.outputs
        specs, world = state["specs"], state["world"]
        rows, ids = checks.read_lze(state["memory_path"])
        unit = checks.unit_rows(rows)
        free = ~world.grid
        positions: dict[str, list] = {}
        for _, noun, cell in world.objects:
            positions.setdefault(noun, []).append(inputs.cell_center(cell, CELL_M))
        problems = []
        first = episodes[:len(specs)]
        for n, (spec, episode, vector) in enumerate(zip(specs, first, vectors)):
            k = min(spec.k, len(ids))
            found = checks.topk_problem(episode.ranked_ids, unit @ vector, ids, k)
            found = [found] if found else []
            found += checks.episode_problems(episode, Pose(*spec.start), free, CELL_M,
                                             positions[spec.noun], fov.max_range)
            problems += [f"episode {n}: {p}" for p in found]
        for n, episode in enumerate(episodes[len(specs):]):
            if navsim.episode_to_json(episode) != navsim.episode_to_json(first[n % len(specs)]):
                problems.append(f"episode {n % len(specs)} ran differently in a later round")
        problems += checks.success_failures(first, success)
        return problems


WORKLOADS = {"train": Train(), "gradcheck": Gradcheck(), "serve": Serve(),
             "navigate": Navigate()}

# (metric, unit) printed with tracing off, in BENCHMARK.json order.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("items_per_s", "1/s"),
              ("op_ms_p50", "ms"), ("op_ms_p95", "ms"))


def _setup_and_measure(workload, ctx: Context):
    """Generate the inputs, set up repeatedly, then measure on the last
    set-up.  Only the set-ups are timed: they are the program's work before
    the first operation.

    Returns the median set-up time, raw and scaled, the last set-up's state
    and what the measured phase produced.
    """
    ctx.phase = "setup"
    given = workload.prepare(ctx, os.path.join(ctx.workdir, "inputs"))
    raw, scaled = [], []
    while len(raw) < ctx.sizes.setup_repeats or sum(raw) < SETUP_MIN_S:
        # A set-up scales by the kernel timed just before it and between
        # its training steps and indexed images.
        first = len(ctx.speed.samples.get("setup", ()))
        ctx.speed.probe("setup", 5)
        inner = Ops(phase="setup")
        with probing(ctx, harness, "train_step", inner), \
                probing(ctx, harness, "image_embedding", inner):
            start = perf_counter()
            state = workload.setup(ctx, os.path.join(ctx.workdir, f"setup{len(raw)}"), given)
            raw.append(perf_counter() - start - inner.probe_s)
        kernel_s = statistics.median(ctx.speed.samples["setup"][first:])
        scaled.append(raw[-1] * speed.REFERENCE_S / kernel_s)
    ctx.phase = "measure"
    ctx.speed.probe("measure", 25)
    measured = workload.measure(ctx, state)
    return (statistics.median(raw), statistics.median(scaled)), state, measured


def _end_to_end(ctx: Context, setup_s: tuple[float, float],
                measured: Measured) -> tuple[dict, dict]:
    """Raw values, and the same scaled to the speed kernel's reference time."""
    busy_raw, busy_scaled = measured.busy_ops.span_s(ctx, measured.busy_s)

    def percentiles(times: list[float]) -> tuple[float, float]:
        if measured.distinct:
            times = np.min(np.reshape(times, (-1, measured.distinct)), axis=0)
        return tuple(1e3 * float(np.percentile(times, q)) for q in (50, 95))

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw, scaled = {}, {}
    for out, setup, busy, times in (
            (raw, setup_s[0] + measured.session_s, busy_raw, measured.ops.raw),
            (scaled, setup_s[1] + measured.session_s, busy_scaled,
             measured.ops.scaled(ctx))):
        out.update(setup_s=setup, peak_rss_mb=peak_mb, items_per_s=measured.items / busy)
        out["op_ms_p50"], out["op_ms_p95"] = percentiles(times)
    return raw, scaled


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
        workdir: str, state_dir: str) -> dict:
    """One run of a workload: metric values and units, operation counts,
    the problems its checks found, and the tracer when `trace` is set.

    A traced run measures once untraced and once traced; the tracing
    overhead is the difference of the two scaled median operation times.
    """
    workload = WORKLOADS[name]
    ctx = Context(seed, seconds, sizes, os.path.join(workdir, "untraced"), state_dir)
    setup_s, state, measured = _setup_and_measure(workload, ctx)
    problems = workload.check(ctx, state, measured)
    raw, scaled = _end_to_end(ctx, setup_s, measured)
    result = {"attempted": measured.attempted, "failed": measured.failed,
              "problems": problems, "tracer": None, "raw": raw,
              "speed": (ctx.speed.factor("setup"), ctx.speed.factor("measure"))}
    if not trace:
        return {**result, "metrics": {m: (scaled[m], unit) for m, unit in END_TO_END}}
    traced_ctx = Context(seed, seconds, sizes, os.path.join(workdir, "traced"), state_dir)
    tracer = tracing.Tracer(traced_ctx)
    # Checks stay outside the traced region: their encoder calls are not workload.
    with tracer.installed():
        traced_setup_s, traced_state, traced = _setup_and_measure(workload, traced_ctx)
    problems += workload.check(traced_ctx, traced_state, traced)
    _, traced_scaled = _end_to_end(traced_ctx, traced_setup_s, traced)
    values = tracing.layer_metrics(tracer.spans, tracing.overhead_pct(
        scaled["op_ms_p50"], traced_scaled["op_ms_p50"]))
    return {**result, "attempted": measured.attempted + traced.attempted,
            "failed": measured.failed + traced.failed, "tracer": tracer,
            "metrics": {m: (values[m], unit) for m, unit in tracing.LAYER_METRICS}}
