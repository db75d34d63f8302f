"""Spans around calls into slotnav's modules, and the per-layer metrics.

The tracer replaces chosen public functions with wrappers that record a
span (name, start, end, parent, request id, phase) in memory.  A function
imported by name into another slotnav module is replaced there too, so
calls between modules are seen.  Nothing inside the program changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _graph_of(args, result):
    return id(args[0])


def _built_graph(args, result):
    # The loss graph's node count: the total is its last node.
    return (id(result.graph), result.total.index + 1)


def _in_view(args, result):
    return result.object_in_fov


# (span name, module, attribute, meta taken from (args, result) or None)
HOOKS = (
    ("autodiff.Graph.evaluate", "slotnav.autodiff", "Graph.evaluate", _graph_of),
    ("autodiff.Graph.gradient", "slotnav.autodiff", "Graph.gradient", _graph_of),
    ("autodiff.Graph.finite_difference_check", "slotnav.autodiff",
     "Graph.finite_difference_check", None),
    ("encoder.build_image_embedding", "slotnav.encoder", "build_image_embedding", None),
    ("encoder.image_embedding", "slotnav.encoder", "image_embedding", None),
    ("encoder.encode_text", "slotnav.encoder", "encode_text", None),
    ("objectives.total_loss_graph", "slotnav.objectives", "total_loss_graph", _built_graph),
    ("objectives.hungarian", "slotnav.objectives", "hungarian", None),
    ("objectives.pairwise_cost", "slotnav.objectives", "pairwise_cost", None),
    ("harness.train", "slotnav.harness", "train", None),
    ("harness.train_on_examples", "slotnav.harness", "train_on_examples", None),
    ("harness.train_step", "slotnav.harness", "train_step", None),
    ("retrieval.topk_images", "slotnav.retrieval", "topk_images", None),
    ("retrieval.save_index", "slotnav.retrieval", "save_index", None),
    ("retrieval.load_index", "slotnav.retrieval", "load_index", None),
    ("navsim.execute_episode", "slotnav.navsim", "execute_episode", _in_view),
    ("navsim.plan_path", "slotnav.navsim", "plan_path", None),
    ("navsim.in_fov", "slotnav.navsim", "in_fov", None),
    ("cli._load_run", "slotnav.cli", "_load_run", None),
    ("fixtures.write_fixture_bundle", "slotnav.fixtures", "write_fixture_bundle", None),
)

# Span fields, stored as lists to keep recording cheap.
NAME, START, END, PARENT, REQUEST, PHASE, META = range(7)


class Tracer:
    """Records spans in memory; `ctx` supplies the request id and phase."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, meta=None):
        spans, open_, ctx = self.spans, self._open, self.ctx

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, ctx.request,
                    ctx.phase, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                open_.pop()
            if meta is not None:
                span[META] = meta(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Swap every hooked function for its traced wrapper, then restore."""
        undo = []
        try:
            for name, module_name, attr, meta in HOOKS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    owner_name, method = attr.split(".")
                    owner = getattr(module, owner_name)
                    original = getattr(owner, method)
                    undo.append((owner, method, original))
                    setattr(owner, method, self.wrap(name, original, meta))
                    continue
                original = getattr(module, attr)
                traced = self.wrap(name, original, meta)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("slotnav") and getattr(mod, attr, None) is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: str, header: dict) -> None:
        """Write the header, the self-time table and every span as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "self_times": self_time_table(self.spans),
                       "spans": [{"name": s[NAME], "start": s[START], "end": s[END],
                                  "parent": s[PARENT], "request": s[REQUEST],
                                  "phase": s[PHASE]} for s in self.spans]},
                      fh, indent=1)
            fh.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def self_time_table(spans: list[list]) -> dict:
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += 1e3 * (span[END] - span[START])
        row["self_ms"] += 1e3 * own
    return table


def _under(spans: list[list], i: int, ancestor: str) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit): each layer metric the traced run prints.
LAYER_METRICS = (
    ("autodiff.nodes_per_step", "count"),
    ("autodiff.forward_passes_per_step", "count"),
    ("autodiff.evaluate_ms_per_step", "ms"),
    ("autodiff.gradient_ms_per_step", "ms"),
    ("autodiff.fd_probe_s", "s"),
    ("autodiff.evaluate_calls_per_image", "count"),
    ("encoder.build_image_calls_per_step", "count"),
    ("encoder.build_image_ms_per_step", "ms"),
    ("encoder.image_embedding_ms", "ms"),
    ("encoder.encode_text_ms", "ms"),
    ("objectives.total_loss_graph_ms_per_step", "ms"),
    ("objectives.hungarian_ms_per_step", "ms"),
    ("objectives.pairwise_cost_ms_per_step", "ms"),
    ("harness.update_ms_per_step", "ms"),
    ("harness.train_io_ms", "ms"),
    ("retrieval.topk_ms_per_query", "ms"),
    ("retrieval.save_index_ms", "ms"),
    ("retrieval.load_index_ms", "ms"),
    ("navsim.rank_ms_per_episode", "ms"),
    ("navsim.plan_path_calls_per_episode", "count"),
    ("navsim.plan_path_ms_per_episode", "ms"),
    ("navsim.in_fov_ms_per_episode", "ms"),
    ("navsim.useful_visit_ratio", "ratio"),
    ("cli.load_run_ms", "ms"),
    ("fixtures.write_bundle_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

# Layers whose cost lands in set-up are read from every span; the rest
# from the measured phase only, so a set-up training run does not count
# as training work on serve or navigate.
_SETUP_LAYERS = ("retrieval.load_index", "cli._load_run", "fixtures.write_fixture_bundle")


def layer_metrics(spans: list[list], overhead_pct: float) -> dict[str, float]:
    """Every LAYER_METRICS value; a layer the workload never calls reads 0."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_: dict[str, float] = {}
    for span, mine in zip(spans, own):
        name = span[NAME]
        if span[PHASE] != "measure" and name not in _SETUP_LAYERS:
            continue
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        self_[name] = self_.get(name, 0.0) + mine

    def n(name: str) -> int:
        return calls.get(name, 0)

    def ms(name: str, table=total) -> float:
        return 1e3 * table.get(name, 0.0)

    measured = [i for i, s in enumerate(spans) if s[PHASE] == "measure"]
    # The loss graph of each step, by request; object ids are unique only
    # among live objects, so a graph is matched within its own step.
    step_graphs = {spans[i][REQUEST]: spans[i][META] for i in measured
                   if spans[i][NAME] == "objectives.total_loss_graph"}
    forward_passes = sum(1 for i in measured
                         if spans[i][NAME] in ("autodiff.Graph.evaluate",
                                               "autodiff.Graph.gradient")
                         and spans[i][META] == step_graphs.get(spans[i][REQUEST], (None,))[0])
    image_evaluates = sum(1 for i in measured
                          if spans[i][NAME] == "autodiff.Graph.evaluate"
                          and _under(spans, i, "encoder.image_embedding"))
    in_view = sum(1 for i in measured
                  if spans[i][NAME] == "navsim.execute_episode" and spans[i][META])

    steps = n("harness.train_step")
    images = n("encoder.image_embedding")
    episodes = n("navsim.execute_episode")
    step_evaluate_ms = 1e3 * sum(spans[i][END] - spans[i][START] for i in measured
                                 if spans[i][NAME] == "autodiff.Graph.evaluate"
                                 and _under(spans, i, "harness.train_step"))
    values = {
        "autodiff.nodes_per_step": _ratio(sum(n for _, n in step_graphs.values()),
                                          len(step_graphs)),
        "autodiff.forward_passes_per_step": _ratio(forward_passes, steps),
        "autodiff.evaluate_ms_per_step": _ratio(step_evaluate_ms, steps),
        "autodiff.gradient_ms_per_step": _ratio(ms("autodiff.Graph.gradient"), steps),
        "autodiff.fd_probe_s": 1e-3 * ms("autodiff.Graph.finite_difference_check", self_),
        "autodiff.evaluate_calls_per_image": _ratio(image_evaluates, images),
        "encoder.build_image_calls_per_step": _ratio(n("encoder.build_image_embedding"), steps),
        "encoder.build_image_ms_per_step": _ratio(ms("encoder.build_image_embedding"), steps),
        "encoder.image_embedding_ms": _ratio(ms("encoder.image_embedding"), images),
        "encoder.encode_text_ms": _ratio(ms("encoder.encode_text"), n("encoder.encode_text")),
        "objectives.total_loss_graph_ms_per_step":
            _ratio(ms("objectives.total_loss_graph"), steps),
        "objectives.hungarian_ms_per_step": _ratio(ms("objectives.hungarian"), steps),
        "objectives.pairwise_cost_ms_per_step": _ratio(ms("objectives.pairwise_cost"), steps),
        "harness.update_ms_per_step": _ratio(ms("harness.train_step", self_), steps),
        "harness.train_io_ms": _ratio(ms("harness.train", self_), n("harness.train")),
        "retrieval.topk_ms_per_query": _ratio(ms("retrieval.topk_images"),
                                              n("retrieval.topk_images")),
        "retrieval.save_index_ms": _ratio(ms("retrieval.save_index"), n("retrieval.save_index")),
        "retrieval.load_index_ms": _ratio(ms("retrieval.load_index"), n("retrieval.load_index")),
        "navsim.rank_ms_per_episode": _ratio(ms("navsim.execute_episode", self_), episodes),
        "navsim.plan_path_calls_per_episode": _ratio(n("navsim.plan_path"), episodes),
        "navsim.plan_path_ms_per_episode": _ratio(ms("navsim.plan_path"), episodes),
        "navsim.in_fov_ms_per_episode": _ratio(ms("navsim.in_fov"), episodes),
        "navsim.useful_visit_ratio": _ratio(in_view, n("navsim.plan_path")),
        "cli.load_run_ms": _ratio(ms("cli._load_run"), n("cli._load_run")),
        "fixtures.write_bundle_ms": _ratio(ms("fixtures.write_fixture_bundle"),
                                           n("fixtures.write_fixture_bundle")),
        "trace.overhead_pct": overhead_pct,
    }
    return values


def overhead_pct(untraced_ms: float, traced_ms: float) -> float:
    """Traced minus untraced operation time, as a share of untraced."""
    return 100.0 * (traced_ms - untraced_ms) / untraced_ms
