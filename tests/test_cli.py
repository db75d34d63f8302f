import json
import math
import os
import re
import signal
import warnings

import numpy as np
import pytest

from slotnav import cli, encoder, harness
from slotnav.autodiff import Graph, LRUCache
from slotnav.cli import _load_run, main
from slotnav.encoder import TEXT_PREFIX, write_ppm
from slotnav.promptgen import load_dataset
from slotnav.retrieval import load_index, save_index


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    fx = root / "fx"
    assert main(["fixtures", "--out", str(fx)]) == 0
    cfg = root / "small.cfg"
    cfg.write_text("lr = 0.001\ntotal_steps = 3\nbatch_size = 4\n",
                   encoding="utf-8")
    run = root / "run"
    assert main(["--config", str(cfg), "train",
                 "--data", str(fx), "--out", str(run)]) == 0
    return {"root": root, "fx": fx, "cfg": cfg, "run": run}


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


# ----------------------------------------------------------------------
# fixtures

def test_fixtures_writes_bundle(tmp_path, capsys):
    assert main(["fixtures", "--out", str(tmp_path / "fx")]) == 0
    out = lines_of(capsys)
    assert all(line.startswith("wrote ") for line in out)
    written = {os.path.basename(line.split(" ", 1)[1]) for line in out}
    assert "dataset.jsonl" in written
    assert "world.txt" in written
    assert "ortho_index.lze" in written


# ----------------------------------------------------------------------
# train

def test_train_summary_lines(bundle, capsys):
    out_dir = bundle["root"] / "run2"
    assert main(["--config", str(bundle["cfg"]), "train",
                 "--data", str(bundle["fx"]), "--out", str(out_dir)]) == 0
    out = lines_of(capsys)
    keys = [line.split(" ", 1)[0] for line in out]
    assert keys == ["steps", "final_loss", "input_hash", "checkpoint", "manifest"]
    assert out[0] == "steps 3"
    assert (out_dir / "checkpoint.lzp").exists()
    assert (out_dir / "losses.log").exists()


def test_train_is_deterministic(bundle, capsys):
    first = bundle["root"] / "det_a"
    second = bundle["root"] / "det_b"
    argv = ["--config", str(bundle["cfg"]), "train", "--data", str(bundle["fx"])]
    assert main(argv + ["--out", str(first)]) == 0
    out_a = lines_of(capsys)
    assert main(argv + ["--out", str(second)]) == 0
    out_b = lines_of(capsys)
    assert out_a[:3] == out_b[:3]
    assert ((first / "checkpoint.lzp").read_bytes()
            == (second / "checkpoint.lzp").read_bytes())
    assert ((first / "losses.log").read_bytes()
            == (second / "losses.log").read_bytes())


def test_train_runs_in_one_process_share_nothing(bundle, tmp_path, capsys):
    # A run with other batch shapes between two equal runs leaves the
    # module's graph caches holding graphs of both.
    other = tmp_path / "other.cfg"
    other.write_text("lr = 0.01\ntotal_steps = 2\nbatch_size = 3\nseed = 4\n",
                     encoding="utf-8")
    argv = ["--config", str(bundle["cfg"]), "train", "--data", str(bundle["fx"])]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(["--config", str(other), "train", "--data", str(bundle["fx"]),
                 "--out", str(tmp_path / "other")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("checkpoint.lzp", "losses.log"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_divergence_in_the_loss_head_names_its_node_and_step(bundle, tmp_path,
                                                                   capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("weights.alpha = 1e308\nweights.beta = 1e308\n"
                   "total_steps = 2\nbatch_size = 4\n", encoding="utf-8")
    assert main(["--config", str(cfg), "train", "--data", str(bundle["fx"]),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: non-finite value in node \S+ at step 0\n", err)
    assert "Traceback" not in err


def test_train_divergence_in_the_update_names_its_parameter_and_step(bundle, tmp_path,
                                                                   capsys):
    # The loss stays finite; lr times its gradient overflows.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("lr = 1e10\nweights.alpha = 1e300\ntotal_steps = 3\nbatch_size = 8\n",
                   encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfg), "train", "--data", str(bundle["fx"]),
                     "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: non-finite value in parameter img\.\S+ at step 0\n", err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("content", ["", "\n"], ids=["empty", "blank-line"])
def test_train_on_a_dataset_with_no_records_exits_1_naming_it(tmp_path, capsys, content):
    # With no records an epoch has no batches; training must refuse rather
    # than loop.  The alarm fails the test if it does not return.
    dataset = tmp_path / "fx" / "dataset.jsonl"
    dataset.parent.mkdir()
    dataset.write_text(content, encoding="utf-8")

    def hang(signum, frame):
        pytest.fail("train did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        code = main(["train", "--data", str(dataset.parent), "--out", str(tmp_path / "run")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert capsys.readouterr().err == f"error: {dataset}: no records\n"
    assert not (tmp_path / "run").exists()


# ----------------------------------------------------------------------
# index and retrieve

def test_index_then_retrieve_round_trips(bundle, tmp_path, capsys):
    index_path = tmp_path / "imgs.lze"
    assert main(["index", "--run", str(bundle["run"]),
                 "--data", str(bundle["fx"]), "--out", str(index_path)]) == 0
    out = lines_of(capsys)
    assert out[0] == "indexed 8"

    index = load_index(str(index_path))
    resaved = tmp_path / "imgs2.lze"
    save_index(index, str(resaved))
    assert index_path.read_bytes() == resaved.read_bytes()

    assert main(["retrieve", "--index", str(index_path),
                 "--query", "cup. book", "--run", str(bundle["run"]),
                 "-k", "2"]) == 0
    out = lines_of(capsys)
    assert len(out) == 2
    qid, rank, image_id, score = out[0].split()
    assert (qid, rank) == ("query", "1")
    assert image_id.startswith("img")
    float(score)


def test_index_reads_one_image_at_a_time(bundle, tmp_path, monkeypatch, capsys):
    fx, run = bundle["fx"], bundle["run"]
    records = load_dataset(str(fx / "dataset.jsonl"))
    store, config = _load_run(str(run))
    expected = tmp_path / "expected.lze"
    save_index(harness.embed_images(
        harness.dataset_examples(records, harness.load_image_dir(records, str(fx))),
        [r.image_id for r in records], store, config), str(expected))

    events = []
    read, embed = harness.read_ppm, harness.image_embedding
    monkeypatch.setattr(harness, "read_ppm",
                        lambda path: events.append("read") or read(path))
    monkeypatch.setattr(harness, "image_embedding",
                        lambda *a, **k: events.append("embed") or embed(*a, **k))
    index_path = tmp_path / "imgs.lze"
    assert main(["index", "--run", str(run), "--data", str(fx),
                 "--out", str(index_path)]) == 0
    assert events == ["read", "embed"] * len(records)
    assert index_path.read_bytes() == expected.read_bytes()


def _bundle_copy(bundle, tmp_path):
    """A copy of the fixture bundle, and its records."""
    data = tmp_path / "data"
    data.mkdir()
    for entry in bundle["fx"].iterdir():
        (data / entry.name).write_bytes(entry.read_bytes())
    return data, load_dataset(str(data / "dataset.jsonl"))


def test_index_of_mixed_sizes_builds_one_graph_per_patch_count(bundle, tmp_path,
                                                               monkeypatch, capsys):
    data, records = _bundle_copy(bundle, tmp_path)
    # Patch counts 4, 8, 4, 9, 4, 64, 8, 9 at patch size 8: no two
    # neighbours share one, so a one-graph cache builds a graph per image.
    sides = [(16, 16), (16, 32), (8, 32), (24, 24), (32, 8), (64, 64), (32, 16), (72, 8)]
    rng = np.random.default_rng(12)
    for record, (h, w) in zip(records, sides, strict=True):
        write_ppm(str(data / f"{record.image_id}.ppm"), rng.random((h, w, 3)))
    built = []
    build = encoder.build_image_embedding
    monkeypatch.setattr(encoder, "build_image_embedding",
                        lambda g, bind, image, *rest: built.append(np.shape(image))
                        or build(g, bind, image, *rest))
    argv = ["index", "--run", str(bundle["run"]), "--data", str(data), "--out"]
    assert main(argv + [str(tmp_path / "shared.lze")]) == 0
    assert len(built) == 4
    load_run = cli._load_run

    def one_graph(run_dir):
        store, config = load_run(run_dir)
        store.graphs = LRUCache(maxsize=1)
        return store, config

    monkeypatch.setattr(cli, "_load_run", one_graph)
    assert main(argv + [str(tmp_path / "cold.lze")]) == 0
    assert len(built) == 4 + len(records)
    capsys.readouterr()
    assert (tmp_path / "shared.lze").read_bytes() == (tmp_path / "cold.lze").read_bytes()


def test_retrieve_on_orthonormal_fixture(bundle, capsys):
    fx = bundle["fx"]
    assert main(["retrieve", "--index", str(fx / "ortho_index.lze"),
                 "--queries", str(fx / "ortho_queries.lze"), "-k", "1"]) == 0
    out = lines_of(capsys)
    assert out[0] == "q0 1 item0 1.000000"
    assert len(out) == 6
    assert all(line.split()[1] == "1" for line in out)


@pytest.mark.parametrize("k", [0, -1])
def test_retrieve_rejects_a_k_below_one_before_reading_any_file(bundle, tmp_path, capsys, k):
    for index in (bundle["fx"] / "ortho_index.lze", tmp_path / "missing.lze"):
        assert main(["retrieve", "--index", str(index), "--queries",
                     str(bundle["fx"] / "ortho_queries.lze"), "-k", str(k)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: -k: must be at least 1, got {k}\n"
        assert captured.out == ""


def test_retrieve_requires_exactly_one_query_source(bundle, capsys):
    fx = bundle["fx"]
    assert main(["retrieve", "--index", str(fx / "ortho_index.lze")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sources, message", [
    ([], "pass exactly one of --queries or --query"),
    (["--queries", "MISSING", "--query", "cup"], "pass exactly one of --queries or --query"),
    (["--query", "cup"], "--query needs --run for the text encoder")])
def test_retrieve_checks_its_query_flags_before_reading_any_file(tmp_path, capsys,
                                                                  sources, message):
    missing = str(tmp_path / "missing")
    assert main(["retrieve", "--index", missing]
                + [missing if a == "MISSING" else a for a in sources]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def _assert_width_error(capsys, source, source_dim, path, path_dim):
    """The command exited on a width mismatch naming both inputs, before
    any result line."""
    captured = capsys.readouterr()
    assert captured.err == (f"error: {source} has dimension {source_dim}, "
                            f"but {path} has {path_dim}\n")
    assert captured.out == ""


def test_retrieve_queries_of_another_width_exit_one_naming_both_files(bundle, capsys):
    index, queries = bundle["fx"] / "nav_memory.lze", bundle["fx"] / "ortho_queries.lze"
    assert main(["retrieve", "--index", str(index), "--queries", str(queries)]) == 1
    _assert_width_error(capsys, queries, load_index(str(queries)).dim,
                        index, load_index(str(index)).dim)


def test_retrieve_query_against_an_index_of_another_width_names_the_run_and_file(
        bundle, capsys):
    index = bundle["fx"] / "nav_memory.lze"
    assert main(["retrieve", "--index", str(index), "--run", str(bundle["run"]),
                 "--query", "sofa"]) == 1
    _assert_width_error(capsys, f"the text encoder of run {bundle['run']}",
                        _load_run(str(bundle["run"]))[1].encoder.dim,
                        index, load_index(str(index)).dim)


# ----------------------------------------------------------------------
# eval-retrieval

def test_eval_retrieval_on_orthonormal_fixture(bundle, capsys):
    fx = bundle["fx"]
    assert main(["eval-retrieval", "--index", str(fx / "ortho_index.lze"),
                 "--queries", str(fx / "ortho_queries.lze"),
                 "--gt", str(fx / "ortho_gt.tsv"), "--ks", "1,5"]) == 0
    out = lines_of(capsys)
    assert out[0] == "ar@1 1.000000"
    assert out[1] == "ar@5 1.000000"
    assert out[2] == "queries 6"


def _eval_retrieval(fx, ks, index=None):
    return ["eval-retrieval", "--index", str(index or fx / "ortho_index.lze"),
            "--queries", str(fx / "ortho_queries.lze"), "--gt", str(fx / "ortho_gt.tsv"),
            "--ks", ks]


@pytest.mark.parametrize("ks", ["0", "abc", "1,0", "-1", "1.5", ","])
def test_eval_retrieval_rejects_bad_ks_before_reading_any_file(bundle, tmp_path, capsys, ks):
    for index in (None, tmp_path / "missing.lze"):
        assert main(_eval_retrieval(bundle["fx"], ks, index)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --ks: ")
        assert captured.out == ""


def test_eval_retrieval_rejects_a_cutoff_past_the_index(bundle, capsys):
    assert main(_eval_retrieval(bundle["fx"], "1,99")) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --ks: 99 exceeds the index's 6 items\n"
    assert captured.out == ""
    assert main(_eval_retrieval(bundle["fx"], "6")) == 0
    assert lines_of(capsys)[0] == "ar@6 1.000000"


def test_eval_retrieval_rejects_bad_gt(bundle, tmp_path, capsys):
    fx = bundle["fx"]
    bad = tmp_path / "bad_gt.tsv"
    bad.write_text("q0\n", encoding="utf-8")
    assert main(["eval-retrieval", "--index", str(fx / "ortho_index.lze"),
                 "--queries", str(fx / "ortho_queries.lze"),
                 "--gt", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bad_gt.tsv: line 1" in err


def test_eval_retrieval_queries_of_another_width_exit_one_naming_both_files(bundle, capsys):
    fx = bundle["fx"]
    index, queries = fx / "ortho_index.lze", fx / "nav_queries.lze"
    assert main(["eval-retrieval", "--index", str(index), "--queries", str(queries),
                 "--gt", str(fx / "ortho_gt.tsv")]) == 1
    _assert_width_error(capsys, queries, load_index(str(queries)).dim,
                        index, load_index(str(index)).dim)


# ----------------------------------------------------------------------
# augment

def test_augment_offline_is_seeded(bundle, tmp_path, capsys):
    fx = bundle["fx"]
    out_a = tmp_path / "aug_a.jsonl"
    out_b = tmp_path / "aug_b.jsonl"
    argv = ["--seed", "3", "augment",
            "--detections", str(fx / "detection.jsonl"), "--count", "2"]
    assert main(argv + ["--out", str(out_a)]) == 0
    first = lines_of(capsys)
    assert first[0] == "records 8"
    assert first[1] == "captions 36"
    assert first[2] == "errors 0"
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    records = load_dataset(str(out_a))
    assert all(len(o.captions) == 3 for r in records for o in r.objects)


def test_augment_reports_malformed_lines(tmp_path, capsys):
    detections = tmp_path / "det.jsonl"
    detections.write_text('not json\n', encoding="utf-8")
    assert main(["augment", "--detections", str(detections),
                 "--out", str(tmp_path / "out.jsonl")]) == 0
    out = lines_of(capsys)
    assert "records 0" in out
    assert "errors 1" in out


def test_augment_skips_a_noun_that_is_not_a_string_and_writes_strict_json(tmp_path, capsys):
    detections = tmp_path / "det.jsonl"
    detections.write_text("".join(
        '{"image_id": "%s", "width": 16, "height": 16, '
        '"objects": [{"noun": %s, "box": [0.1, 0.1, 0.5, 0.5]}]}\n' % pair
        for pair in (("a", "7"), ("b", "NaN"), ("c", '"cup"'))), encoding="utf-8")
    out = tmp_path / "aug.jsonl"
    assert main(["augment", "--detections", str(detections), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "".join(
        f"skipped {detections}: line {n}: object noun must be a nonempty string, got {v}\n"
        for n, v in ((1, "7"), (2, "nan")))

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    lines = out.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line, parse_constant=reject)["image_id"] for line in lines] == ["c"]


def test_augment_numbers_a_run_of_one_noun_across_objects_and_lines(tmp_path, capsys):
    # convert_detection_lines through its command: consecutive objects with
    # one noun continue its numbering, within a line and across lines, and
    # line 3's good lamp consumes sentences although its bad box skips the
    # line.  Any other noun restarts at sentence 0.
    def line(image_id, *objects):
        return json.dumps({"image_id": image_id, "width": 16, "height": 16,
                           "objects": [{"noun": n, "box": list(box)} for n, box in objects]})

    ok, bad = (0.1, 0.1, 0.5, 0.5), (0.5, 0.0, 0.2, 1.0)
    detections = tmp_path / "det.jsonl"
    detections.write_text("\n".join([
        line("a", ("sofa", ok), ("sofa", ok), ("lamp", ok)),
        line("b", ("lamp", ok)),
        line("c", ("lamp", ok), ("lamp", bad)),
        line("d", ("lamp", ok), ("sofa", ok))]) + "\n", encoding="utf-8")
    out = tmp_path / "aug.jsonl"
    assert main(["augment", "--detections", str(detections), "--out", str(out),
                 "--count", "2"]) == 0
    assert capsys.readouterr().err == (
        f"skipped {detections}: line 3: invalid normalized box [0.5, 0.0, 0.2, 1.0]\n")
    assert [(r.image_id, [o.captions for o in r.objects]) for r in load_dataset(str(out))] == [
        ("a", [["sofa", "Where is the sofa?", "I am looking for a sofa."],
               ["sofa", "Can you find the sofa?", "Please take me to the sofa."],
               ["lamp", "Where is the lamp?", "I am looking for a lamp."]]),
        ("b", [["lamp", "Can you find the lamp?", "Please take me to the lamp."]]),
        ("d", [["lamp", "Do you see a lamp around here?", "Head over to the lamp."],
               ["sofa", "Where is the sofa?", "I am looking for a sofa."]])]

    # Past the 12-sentence bank the numbered variations start at the seed's
    # base, here 555 for seed 3, and the second cup continues them.
    detections.write_text(line("e", ("cup", ok)) + "\n" + line("f", ("cup", ok)) + "\n",
                          encoding="utf-8")
    assert main(["--seed", "3", "augment", "--detections", str(detections),
                 "--out", str(out), "--count", "15"]) == 0
    e, f = [r.objects[0].captions for r in load_dataset(str(out))]
    assert e[1:13] == [s.format(noun="cup") for s in (
        "Where is the {noun}?", "I am looking for a {noun}.", "Can you find the {noun}?",
        "Please take me to the {noun}.", "Is there a {noun} nearby?",
        "Show me where the {noun} is.", "I need to use the {noun}.", "Guide me to the {noun}.",
        "Do you see a {noun} around here?", "Head over to the {noun}.",
        "I want to check on the {noun}.", "Which way is the {noun}?")]
    assert e[13:] + f[1:] == [f"Tell me where the cup is, variation {v}."
                              for v in range(567, 585)]


# ----------------------------------------------------------------------
# nav-eval

def test_nav_eval_matches_hand_traces(bundle, tmp_path, capsys):
    fx = bundle["fx"]
    log = tmp_path / "episodes.jsonl"
    assert main(["nav-eval", "--world", str(fx / "world.txt"),
                 "--memory", str(fx / "nav_memory.lze"),
                 "--poses", str(fx / "nav_memory_poses.jsonl"),
                 "--queries", str(fx / "nav_queries.jsonl"),
                 "--query-index", str(fx / "nav_queries.lze"),
                 "--log", str(log)]) == 0
    out = lines_of(capsys)
    assert out[0] == "episode ep0 distance 0.5000 fov true visited 1 path_cells 12"
    assert out[1] == "episode ep1 distance 0.5000 fov false visited 1 path_cells 16"
    assert out[2] == "episode ep2 distance 1.2500 fov true visited 1 path_cells 9"
    assert out[3] == "episode ep3 distance 0.7500 fov true visited 2 path_cells 20"
    assert "sr@1m 0.500000" in out
    assert "sr@2m 0.750000" in out
    assert "fov_rate 0.750000" in out
    logged = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(logged) == 4
    assert logged[0]["distance"] == pytest.approx(0.5)


def test_nav_eval_through_trained_model(bundle, tmp_path, capsys):
    fx = bundle["fx"]
    index_path = tmp_path / "imgs.lze"
    assert main(["index", "--run", str(bundle["run"]),
                 "--data", str(bundle["fx"]), "--out", str(index_path)]) == 0
    capsys.readouterr()
    assert main(["nav-eval", "--world", str(fx / "world.txt"),
                 "--memory", str(index_path),
                 "--poses", str(fx / "image_poses.jsonl"),
                 "--queries", str(fx / "nav_queries.jsonl"),
                 "--run", str(bundle["run"])]) == 0
    out = lines_of(capsys)
    assert out[-1] == "episodes 4"


def test_nav_eval_rejects_mismatched_embeddings(bundle, capsys):
    fx = bundle["fx"]
    memory = fx / "nav_memory.lze"
    assert main(["nav-eval", "--world", str(fx / "world.txt"),
                 "--memory", str(memory),
                 "--poses", str(fx / "nav_memory_poses.jsonl"),
                 "--queries", str(fx / "nav_queries.jsonl"),
                 "--run", str(bundle["run"])]) == 1
    _assert_width_error(capsys, f"the text encoder of run {bundle['run']}",
                        _load_run(str(bundle["run"]))[1].encoder.dim,
                        memory, load_index(str(memory)).dim)


def test_nav_eval_query_index_of_another_width_exits_one_naming_both_files(
        bundle, tmp_path, capsys):
    fx = bundle["fx"]
    memory, queries = tmp_path / "imgs.lze", fx / "nav_queries.lze"
    assert main(["index", "--run", str(bundle["run"]), "--data", str(fx),
                 "--out", str(memory)]) == 0
    capsys.readouterr()
    assert main(["nav-eval", "--world", str(fx / "world.txt"), "--memory", str(memory),
                 "--poses", str(fx / "image_poses.jsonl"),
                 "--queries", str(fx / "nav_queries.jsonl"),
                 "--query-index", str(queries)]) == 1
    _assert_width_error(capsys, queries, load_index(str(queries)).dim,
                        memory, load_index(str(memory)).dim)


def _drop_start_of_second_query(text):
    lines = text.splitlines()
    record = json.loads(lines[1])
    del record["start"]
    lines[1] = json.dumps(record)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, edit, line", [
    ("nav_memory_poses.jsonl",
     lambda text: text.replace('"y": 0.625}', '"y": 0.625, "z": 1}', 1), 1),
    ("nav_memory_poses.jsonl", lambda text: text + "[1, 2]\n", 7),
    ("nav_queries.jsonl", _drop_start_of_second_query, 2),
])
def test_nav_eval_bad_record_exits_one_and_names_its_line(bundle, tmp_path, capsys,
                                                         name, edit, line):
    fx = bundle["fx"]
    paths = {n: fx / n for n in ("nav_memory_poses.jsonl", "nav_queries.jsonl")}
    bad = tmp_path / name
    original = paths[name].read_text(encoding="utf-8")
    bad.write_text(edit(original), encoding="utf-8")
    assert bad.read_text(encoding="utf-8") != original
    paths[name] = bad
    assert main(["nav-eval", "--world", str(fx / "world.txt"),
                 "--memory", str(fx / "nav_memory.lze"),
                 "--poses", str(paths["nav_memory_poses.jsonl"]),
                 "--queries", str(paths["nav_queries.jsonl"]),
                 "--query-index", str(fx / "nav_queries.lze")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line {line}: ")
    assert "Traceback" not in err


def test_nav_eval_reads_a_query_k_only_without_the_k_flag(bundle, tmp_path, capsys):
    fx = bundle["fx"]
    queries = tmp_path / "queries.jsonl"
    records = [json.loads(line) for line in
               (fx / "nav_queries.jsonl").read_text(encoding="utf-8").splitlines()]
    queries.write_text("".join(json.dumps({**r, "k": "all"}) + "\n" for r in records),
                       encoding="utf-8")
    outputs = []
    for path, extra in ((fx / "nav_queries.jsonl", ["--k", "2"]), (queries, ["--k", "2"]),
                        (queries, [])):
        outputs.append(main(["nav-eval", "--world", str(fx / "world.txt"),
                             "--memory", str(fx / "nav_memory.lze"),
                             "--poses", str(fx / "nav_memory_poses.jsonl"),
                             "--queries", str(path),
                             "--query-index", str(fx / "nav_queries.lze")] + extra))
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[2] == 0
    assert outputs[1].out == outputs[3].out
    assert outputs[4] == 1
    assert outputs[5].err.startswith(f"error: {queries}: line 1: ")


def _nav_eval_fixture(fx, queries=None):
    return ["nav-eval", "--world", str(fx / "world.txt"),
            "--memory", str(fx / "nav_memory.lze"),
            "--poses", str(fx / "nav_memory_poses.jsonl"),
            "--queries", str(queries or fx / "nav_queries.jsonl"),
            "--query-index", str(fx / "nav_queries.lze")]


@pytest.mark.parametrize("radii", ["0", "abc", "1.0,-2", "nan", "inf", ","])
def test_nav_eval_rejects_bad_radii_before_any_episode(bundle, capsys, radii):
    assert main(_nav_eval_fixture(bundle["fx"]) + ["--radii", radii]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --radii: ")
    assert "episode" not in captured.out


@pytest.mark.parametrize("flag, value", [("--max-range", "nan"), ("--max-range", "0"),
                                         ("--max-range", "-1"), ("--cell-m", "nan"),
                                         ("--cell-m", "inf"), ("--cell-m", "0"),
                                         ("--half-angle", "4"), ("--half-angle", "nan"),
                                         ("--half-angle", "0")])
def test_nav_eval_rejects_a_bad_camera_or_cell_flag_before_loading(bundle, tmp_path, capsys,
                                                                    flag, value):
    argv = _nav_eval_fixture(bundle["fx"]) + [flag, value]
    missing = argv[:]
    missing[missing.index("--world") + 1] = str(tmp_path / "missing.txt")
    for args in (argv, missing):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}: ")
        assert "episode" not in captured.out


@pytest.mark.parametrize("both", [False, True])
def test_nav_eval_checks_its_query_flags_before_reading_any_file(tmp_path, capsys, both):
    missing = str(tmp_path / "missing")
    argv = ["nav-eval", "--world", missing, "--memory", missing, "--poses", missing,
            "--queries", missing] + (["--query-index", missing, "--run", missing] if both else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: pass exactly one of --query-index or --run\n"
    assert captured.out == ""


def test_nav_eval_max_range_inf_means_no_range_limit(bundle, capsys):
    outputs = []
    for value in ("inf", "100"):
        assert main(_nav_eval_fixture(bundle["fx"]) + ["--max-range", value]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "episodes 4" in outputs[0]


@pytest.mark.parametrize("k", [0, -2])
def test_nav_eval_rejects_a_k_flag_below_one_before_any_episode(bundle, capsys, k):
    assert main(_nav_eval_fixture(bundle["fx"]) + ["--k", str(k)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --k: must be at least 1, got {k}\n"
    assert "episode" not in captured.out


@pytest.mark.parametrize("k", [0, -2, 1.5, "2", True])
def test_nav_eval_rejects_a_query_k_that_is_not_a_positive_integer(bundle, tmp_path,
                                                                   capsys, k):
    fx = bundle["fx"]
    queries = tmp_path / "queries.jsonl"
    records = [json.loads(line) for line in
               (fx / "nav_queries.jsonl").read_text(encoding="utf-8").splitlines()]
    records[2]["k"] = k
    queries.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(_nav_eval_fixture(fx, queries)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {queries}: line 3: k must be an integer")
    assert "episode" not in captured.out


# ----------------------------------------------------------------------
# gradcheck

def test_gradcheck_passes_on_the_small_instance(capsys):
    assert main(["gradcheck"]) == 0
    out = lines_of(capsys)
    assert out[-1] == "passed true"
    assert any(line.startswith("max_relative_error ") for line in out)
    assert "skipped 0" in out


def test_gradcheck_names_its_worst_coordinate(capsys, monkeypatch):
    reports = []
    check = Graph.finite_difference_check

    def kept(self, *args, **kwargs):
        reports.append(check(self, *args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(Graph, "finite_difference_check", kept)
    assert main(["gradcheck"]) == 0
    out = lines_of(capsys)
    assert out[-1] == "passed true"
    m = re.fullmatch(r"worst (\S+)\[([\d, ]+)\] analytic (\S+) numeric (\S+)", out[-2])
    assert m is not None, out[-2]
    worst = reports[0].worst
    # gradcheck probes the trainable tensors only; the text tower is frozen.
    assert m.group(1) == worst.parameter and m.group(1) in reports[0].per_parameter
    assert not m.group(1).startswith(TEXT_PREFIX)
    assert tuple(int(i) for i in m.group(2).split(", ")) == worst.coordinate
    assert m.group(3) == f"{worst.analytic:.6e}" and m.group(4) == f"{worst.numeric:.6e}"


# ----------------------------------------------------------------------
# Error surface

def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["--bogus-flag", "gradcheck"])
    assert excinfo.value.code == 2


def test_missing_file_exits_one(capsys):
    assert main(["retrieve", "--index", "/nonexistent/file.lze",
                 "--query", "x", "--run", "/nonexistent"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_truncated_index_exits_one_and_names_its_file(bundle, tmp_path, capsys):
    fx = bundle["fx"]
    blob = (fx / "ortho_index.lze").read_bytes()
    cut = tmp_path / "cut.lze"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        assert main(["retrieve", "--index", str(cut),
                     "--queries", str(fx / "ortho_queries.lze")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cut}: ")
        assert "Traceback" not in err


def test_truncated_checkpoint_exits_one_and_names_its_file(bundle, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_bytes((bundle["run"] / "manifest.json").read_bytes())
    blob = (bundle["run"] / "checkpoint.lzp").read_bytes()
    (run / "checkpoint.lzp").write_bytes(blob[:len(blob) // 2])
    assert main(["retrieve", "--index", str(bundle["fx"] / "ortho_index.lze"),
                 "--run", str(run), "--query", "sofa"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / 'checkpoint.lzp'}: ")
    assert "Traceback" not in err


def test_malformed_manifest_exits_one_and_names_its_file(bundle, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "checkpoint.lzp").write_bytes((bundle["run"] / "checkpoint.lzp").read_bytes())
    # The JSON text without its closing newline, so each prefix is cut short.
    manifest = (bundle["run"] / "manifest.json").read_text(encoding="utf-8").rstrip()
    bodies = [manifest[:size] for size in range(len(manifest))]
    bodies += [json.dumps({"checkpoint": "checkpoint.lzp"}), "[1, 2]"]
    good = json.loads(manifest)
    for key, value in (("checkpoint", 5), ("config", {**good["config"], "encoder": 5}),
                       ("config", {**good["config"], "encoder": {"num_slots": 2.5}})):
        bodies.append(json.dumps({**good, key: value}))
    path = run / "manifest.json"
    for body in bodies:
        path.write_text(body, encoding="utf-8")
        assert main(["retrieve", "--index", str(bundle["fx"] / "ortho_index.lze"),
                     "--run", str(run), "--query", "sofa"]) == 1, body
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: "), err
        assert "Traceback" not in err


def test_checkpoint_that_does_not_match_its_config_exits_one(bundle, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    manifest = json.loads((bundle["run"] / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["encoder"]["num_slots"] == 4
    manifest["config"]["encoder"]["num_slots"] = 3
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    (run / "checkpoint.lzp").write_bytes((bundle["run"] / "checkpoint.lzp").read_bytes())
    for argv in (["retrieve", "--index", str(bundle["fx"] / "ortho_index.lze"),
                  "--run", str(run), "--query", "sofa"],
                 ["index", "--run", str(run), "--data", str(bundle["fx"]),
                  "--out", str(tmp_path / "imgs.lze")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        # agg.slots.w reads the K slots flattened: the first tensor K shapes.
        assert err.startswith(f"error: {run / 'checkpoint.lzp'}: tensor agg.slots.w ")
        assert "(128, 32)" in err and "(96, 32)" in err
    assert not (tmp_path / "imgs.lze").exists()


def test_index_over_a_malformed_image_exits_one_and_names_it(bundle, tmp_path, capsys):
    data, records = _bundle_copy(bundle, tmp_path)
    image = data / f"{records[0].image_id}.ppm"
    image.write_bytes(image.read_bytes()[:-1])
    assert main(["index", "--run", str(bundle["run"]), "--data", str(data),
                 "--out", str(tmp_path / "imgs.lze")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {image}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("side, message", [(20, "image 20×20 not divisible by patch size 8"),
                                           (72, "81 patches exceed max_tokens=64")],
                         ids=["indivisible", "too_many_patches"])
@pytest.mark.parametrize("command", ["index", "train"])
def test_image_the_encoder_cannot_patch_exits_one_and_names_it(bundle, tmp_path, capsys,
                                                               command, side, message):
    data, records = _bundle_copy(bundle, tmp_path)
    image = data / f"{records[-1].image_id}.ppm"
    write_ppm(str(image), np.full((side, side, 3), 0.5))
    out = tmp_path / "out"
    argv = (["index", "--run", str(bundle["run"]), "--data", str(data), "--out", str(out)]
            if command == "index" else
            ["--config", str(bundle["cfg"]), "train", "--data", str(data), "--out", str(out)])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {image}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("line", ['lr = "abc"', 'weights.tau = "x"', "encoder.num_slots = 2.5",
                                  "batch_size = 2.5", "total_steps = true"])
def test_config_value_of_the_wrong_type_exits_one_and_names_the_file(bundle, tmp_path,
                                                                      capsys, line):
    _train_rejects_config_line(bundle, tmp_path, capsys, line)


@pytest.mark.parametrize("line", ["encoder.heads = 0", "encoder.patch_size = 0",
                                  "encoder.text_len = 0", "encoder.max_tokens = 0",
                                  "encoder.text_vocab = 0", "encoder.mlp_ratio = 0",
                                  "encoder.slot_std = []", "encoder.slot_std = [1.0, 2.0]"])
def test_encoder_value_out_of_range_exits_one_and_names_the_file(bundle, tmp_path, capsys,
                                                                 line):
    _train_rejects_config_line(bundle, tmp_path, capsys, line)


@pytest.mark.parametrize("line, message", [
    ("lr = NaN", "lr must be finite, got nan"),
    ("lr = 1" + "0" * 400, f"lr must be finite, got {10 ** 400}"),  # past float's range
    ("decay = -Infinity", "decay must be finite, got -inf"),
    ("weights.tau = Infinity", "tau must be finite, got inf"),
    ("encoder.slot_mean = Infinity", "slot_mean must be finite, got inf"),
    ("encoder.slot_std = [1.0, NaN]", "slot_std must be finite, got (1.0, nan)")],
    ids=["lr_nan", "lr_huge", "decay_minus_inf", "tau_inf", "slot_mean_inf", "slot_std_nan"])
def test_config_number_that_is_not_finite_exits_one_and_names_the_file_and_key(
        bundle, tmp_path, capsys, line, message):
    err = _train_rejects_config_line(bundle, tmp_path, capsys, line)
    assert err == f"error: {tmp_path / 'bad.cfg'}: {message}\n"


def test_run_manifest_with_a_number_that_is_not_finite_exits_one_and_names_it(
        bundle, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "checkpoint.lzp").write_bytes((bundle["run"] / "checkpoint.lzp").read_bytes())
    manifest = json.loads((bundle["run"] / "manifest.json").read_text(encoding="utf-8"))
    manifest["config"]["lr"] = math.nan
    path = run / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")  # writes NaN
    assert main(["retrieve", "--index", str(bundle["fx"] / "ortho_index.lze"),
                 "--run", str(run), "--query", "sofa"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: bad config (lr must be finite, got nan)\n"


def test_config_with_no_training_steps_exits_one_and_names_the_file(bundle, tmp_path, capsys):
    err = _train_rejects_config_line(bundle, tmp_path, capsys, "total_steps = 0")
    assert err == f"error: {tmp_path / 'bad.cfg'}: total_steps must be >= 1\n"


def _train_rejects_config_line(bundle, tmp_path, capsys, line):
    """Train with a config of this one line exits 1 naming the config file
    and writes nothing; returns the error output."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main(["--config", str(cfg), "train", "--data", str(bundle["fx"]),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()
    return err


def test_divergent_training_exits_one_and_names_the_step(bundle, tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("lr = 1e6\ntotal_steps = 4\nbatch_size = 4\n", encoding="utf-8")
    assert main(["--config", str(cfg), "train", "--data", str(bundle["fx"]),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite value in node ")
    assert re.search(r" at step \d+$", err.strip())
    assert "Traceback" not in err


def test_malformed_world_names_the_line(bundle, tmp_path, capsys):
    fx = bundle["fx"]
    bad = tmp_path / "bad_world.txt"
    bad.write_text("..\n.x\n\nob sofa 0 0\n", encoding="utf-8")
    assert main(["nav-eval", "--world", str(bad),
                 "--memory", str(fx / "nav_memory.lze"),
                 "--poses", str(fx / "nav_memory_poses.jsonl"),
                 "--queries", str(fx / "nav_queries.jsonl"),
                 "--query-index", str(fx / "nav_queries.lze")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bad_world.txt" in err
    assert "line 2" in err


def test_index_over_a_dataset_with_no_records_exits_one_and_names_it(bundle, tmp_path,
                                                                   capsys):
    dataset = tmp_path / "data" / "dataset.jsonl"
    dataset.parent.mkdir()
    dataset.write_text("\n", encoding="utf-8")
    assert main(["index", "--run", str(bundle["run"]), "--data", str(dataset.parent),
                 "--out", str(tmp_path / "imgs.lze")]) == 1
    assert capsys.readouterr().err == f"error: {dataset}: no records\n"
    assert not (tmp_path / "imgs.lze").exists()


def _set_second_noun(text, noun):
    lines = text.splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "noun": noun})
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit, message", [
    (lambda text: "", "no records"),
    (lambda text: "\n\n", "no records"),
    (lambda text: _set_second_noun(text, "piano"),
     "line 2: {world} has no object named 'piano'"),
], ids=["empty", "blank-lines", "unknown-noun"])
def test_nav_eval_queries_with_no_usable_record_exit_one_and_name_the_file(
        bundle, tmp_path, capsys, edit, message):
    fx = bundle["fx"]
    queries = tmp_path / "queries.jsonl"
    queries.write_text(edit((fx / "nav_queries.jsonl").read_text(encoding="utf-8")),
                       encoding="utf-8")
    assert main(["nav-eval", "--world", str(fx / "world.txt"),
                 "--memory", str(fx / "nav_memory.lze"),
                 "--poses", str(fx / "nav_memory_poses.jsonl"),
                 "--queries", str(queries),
                 "--query-index", str(fx / "nav_queries.lze")]) == 1
    captured = capsys.readouterr()
    expected = message.format(world=fx / "world.txt")
    assert captured.err == f"error: {queries}: {expected}\n"
    assert captured.out == ""


# ----------------------------------------------------------------------
# Text input that is not UTF-8

NOT_UTF8 = b"\xff\xfe bad\n"


def _append_bad_line(src, dst):
    """dst holds src's lines and then a line that is not UTF-8; returns its
    line number."""
    text = src.read_bytes()
    dst.write_bytes(text + NOT_UTF8)
    return text.count(b"\n") + 1


def _assert_names(capsys, path, line):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line {line}: "), err
    assert err.count(str(path)) == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["world.txt", "nav_memory_poses.jsonl", "nav_queries.jsonl"])
def test_nav_eval_input_that_is_not_utf8_names_its_file_and_line(bundle, tmp_path, capsys,
                                                                  name):
    fx = bundle["fx"]
    paths = {n: fx / n for n in ("world.txt", "nav_memory_poses.jsonl", "nav_queries.jsonl")}
    paths[name] = tmp_path / name
    line = _append_bad_line(fx / name, paths[name])
    assert main(["nav-eval", "--world", str(paths["world.txt"]),
                 "--memory", str(fx / "nav_memory.lze"),
                 "--poses", str(paths["nav_memory_poses.jsonl"]),
                 "--queries", str(paths["nav_queries.jsonl"]),
                 "--query-index", str(fx / "nav_queries.lze")]) == 1
    _assert_names(capsys, paths[name], line)


def test_train_dataset_that_is_not_utf8_names_its_file_and_line(bundle, tmp_path, capsys):
    data, _ = _bundle_copy(bundle, tmp_path)
    line = _append_bad_line(bundle["fx"] / "dataset.jsonl", data / "dataset.jsonl")
    assert main(["--config", str(bundle["cfg"]), "train", "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 1
    _assert_names(capsys, data / "dataset.jsonl", line)
    assert not (tmp_path / "run").exists()


def test_config_that_is_not_utf8_names_its_file_and_line(bundle, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    line = _append_bad_line(bundle["cfg"], cfg)
    assert main(["--config", str(cfg), "train", "--data", str(bundle["fx"]),
                 "--out", str(tmp_path / "run")]) == 1
    _assert_names(capsys, cfg, line)


def test_augment_detections_that_are_not_utf8_are_a_file_error(bundle, tmp_path, capsys):
    detections = tmp_path / "det.jsonl"
    line = _append_bad_line(bundle["fx"] / "detection.jsonl", detections)
    assert main(["augment", "--detections", str(detections),
                 "--out", str(tmp_path / "out.jsonl")]) == 1
    _assert_names(capsys, detections, line)
    assert not (tmp_path / "out.jsonl").exists()


def test_eval_retrieval_gt_naming_an_unknown_id_names_its_file_and_line(bundle, tmp_path,
                                                                        capsys):
    fx = bundle["fx"]
    gt = tmp_path / "gt.tsv"
    line = (fx / "ortho_gt.tsv").read_text(encoding="utf-8").count("\n") + 1
    gt.write_text((fx / "ortho_gt.tsv").read_text(encoding="utf-8") + "q0\titemZZZ\n",
                  encoding="utf-8")
    assert main(["eval-retrieval", "--index", str(fx / "ortho_index.lze"),
                 "--queries", str(fx / "ortho_queries.lze"), "--gt", str(gt)]) == 1
    _assert_names(capsys, gt, line)


# ----------------------------------------------------------------------
# Pose records
#
# README: a pose in the dataset, detection, poses or queries file has
# exactly x, y and theta, all finite.  Any other names its file and line
# and exits with code 1; augment skips and reports its line.

def _edit_record(path, line, edit):
    """Rewrite the JSONL record on line (from 1) of path with edit."""
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[line - 1])
    edit(record)
    lines[line - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


BAD_POSES = {"x-inf": lambda pose: pose.update(x=math.inf),
             "y-nan": lambda pose: pose.update(y=math.nan),
             "extra-key": lambda pose: pose.update(z=0.0),
             "missing-key": lambda pose: pose.pop("y")}


@pytest.mark.parametrize("name, key", [("nav_queries.jsonl", "start"),
                                       ("nav_memory_poses.jsonl", "pose")])
@pytest.mark.parametrize("bad", ["x-inf", "y-nan"])
def test_nav_eval_pose_that_is_not_finite_exits_one_and_names_its_line(
        bundle, tmp_path, capsys, name, key, bad):
    # An infinite pose would overflow in GridWorld.cell_of, and a NaN one
    # would run to "distance nan".  A pose with other keys is
    # test_nav_eval_bad_record_exits_one_and_names_its_line's.
    fx = bundle["fx"]
    paths = {n: fx / n for n in ("nav_memory_poses.jsonl", "nav_queries.jsonl")}
    paths[name] = tmp_path / name
    paths[name].write_bytes((fx / name).read_bytes())
    _edit_record(paths[name], 2, lambda record: BAD_POSES[bad](record[key]))
    assert main(["nav-eval", "--world", str(fx / "world.txt"),
                 "--memory", str(fx / "nav_memory.lze"),
                 "--poses", str(paths["nav_memory_poses.jsonl"]),
                 "--queries", str(paths["nav_queries.jsonl"]),
                 "--query-index", str(fx / "nav_queries.lze")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {paths[name]}: line 2: a pose ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "index"])
@pytest.mark.parametrize("bad", sorted(BAD_POSES))
def test_dataset_pose_that_is_not_finite_x_y_theta_exits_one_and_names_its_line(
        bundle, tmp_path, capsys, command, bad):
    data, _ = _bundle_copy(bundle, tmp_path)
    _edit_record(data / "dataset.jsonl", 3, lambda record: BAD_POSES[bad](record["pose"]))
    out = tmp_path / "out"
    argv = {"train": ["--config", str(bundle["cfg"]), "train", "--data", str(data),
                      "--out", str(out)],
            "index": ["index", "--run", str(bundle["run"]), "--data", str(data),
                      "--out", str(out)]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {data / 'dataset.jsonl'}: line 3: a pose ")
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("bad", sorted(BAD_POSES))
def test_augment_skips_and_reports_a_detection_pose_that_is_not_finite_x_y_theta(
        bundle, tmp_path, capsys, bad):
    # A NaN pose would reach the output as NaN, which is not JSON.
    detections = tmp_path / "det.jsonl"
    detections.write_bytes((bundle["fx"] / "detection.jsonl").read_bytes())
    _edit_record(detections, 3, lambda record: BAD_POSES[bad](record["pose"]))
    out = tmp_path / "aug.jsonl"
    assert main(["augment", "--detections", str(detections), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(f"skipped {re.escape(str(detections))}: line 3: a pose [^\n]*\n",
                        captured.err)
    assert captured.out.splitlines()[::2] == ["records 7", "errors 1"]
    assert [r.image_id for r in load_dataset(str(out))] == [
        f"img{i:03d}" for i in range(8) if i != 2]
