import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slotnav.promptgen import (STUB_SENTENCE_BANK, CaptionedObject,
                               CaptionRecord, Pose, build_prompt, convert_detection_lines,
                               load_dataset, noun_to_sentences, pose_from_json,
                               pose_to_json, read_lines, save_dataset)


# ----------------------------------------------------------------------
# Prompts

def test_build_prompt_with_sentence():
    assert build_prompt("sofa", "Where can I sit down?") == "sofa. Where can I sit down?"


def test_build_prompt_deterministic():
    a = build_prompt("desk", "Is it sturdy?")
    b = build_prompt("desk", "Is it sturdy?")
    assert a == b


def test_build_prompt_rejects_empty_noun():
    with pytest.raises(ValueError):
        build_prompt("", "hi")


def test_build_prompt_rejects_separator_in_noun():
    with pytest.raises(ValueError):
        build_prompt("sofa. bed", "hi")


# ----------------------------------------------------------------------
# Sentence generation

def test_stub_first_two_sentences_pinned():
    assert noun_to_sentences("sofa", 2) == [
        "Where is the sofa?", "I am looking for a sofa."]


def test_stub_sentences_pairwise_distinct():
    out = noun_to_sentences("chair", len(STUB_SENTENCE_BANK) + 3, seed=4)
    assert len(out) == len(STUB_SENTENCE_BANK) + 3
    assert len(set(out)) == len(out)


def test_stub_same_seed_replays_exactly():
    first = noun_to_sentences("table", 15, seed=9)
    second = noun_to_sentences("table", 15, seed=9)
    assert first == second


def test_stub_seeds_diverge_past_bank():
    n = len(STUB_SENTENCE_BANK) + 1
    a = noun_to_sentences("table", n, seed=1)
    b = noun_to_sentences("table", n, seed=2)
    assert a[:len(STUB_SENTENCE_BANK)] == b[:len(STUB_SENTENCE_BANK)]
    assert a[-1] != b[-1]


def test_history_blocks_repeats_within_noun_session():
    first = noun_to_sentences("sofa", 3)
    second = noun_to_sentences("sofa", 12, start=3)
    assert not set(first) & set(second)
    assert first + second == noun_to_sentences("sofa", 15)


def test_new_noun_resets_history():
    report = convert_detection_lines([detection_line("img000", ["sofa", "lamp"])], 2)
    assert report.records[0].objects[1].captions == [
        "lamp", "Where is the lamp?", "I am looking for a lamp."]


def test_noun_to_sentences_rejects_bad_count():
    with pytest.raises(ValueError):
        noun_to_sentences("sofa", 0)
    with pytest.raises(ValueError):
        noun_to_sentences("", 1)


# ----------------------------------------------------------------------
# Dataset records

def make_record(image_id="img000", captions=("sofa", "Where is the sofa?")):
    obj = CaptionedObject(noun="sofa", box=[0.1, 0.2, 0.6, 0.8],
                          captions=list(captions))
    return CaptionRecord(image_id=image_id, width=16, height=16,
                         pose=Pose(x=1.0, y=2.0, theta=0.5), objects=[obj])


def test_dataset_round_trip(tmp_path):
    records = [make_record("img000"), make_record("img001")]
    path = str(tmp_path / "data.jsonl")
    save_dataset(records, path)
    back = load_dataset(path)
    assert len(back) == 2
    assert back[0].image_id == "img000"
    assert back[0].pose == Pose(x=1.0, y=2.0, theta=0.5)
    assert back[0].objects[0].captions == ["sofa", "Where is the sofa?"]
    assert np.allclose(back[0].objects[0].box, [0.1, 0.2, 0.6, 0.8])


def test_record_requires_captions():
    with pytest.raises(ValueError):
        make_record(captions=())


def test_object_rejects_bad_box():
    with pytest.raises(ValueError):
        CaptionedObject(noun="sofa", box=[0.5, 0.0, 0.2, 1.0], captions=["x"])
    with pytest.raises(ValueError):
        CaptionedObject(noun="sofa", box=[0.0, 0.0, 1.0, 1.5], captions=["x"])


@pytest.mark.parametrize("noun", [7, float("nan"), "", None])
def test_object_rejects_a_noun_that_is_not_a_nonempty_string(noun):
    with pytest.raises(ValueError, match="object noun must be a nonempty string"):
        CaptionedObject(noun=noun, box=[0.1, 0.1, 0.5, 0.5], captions=["x"])


def test_load_dataset_reports_line(tmp_path):
    path = str(tmp_path / "data.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"image_id": "a", "width": 16, "height": 16,
                             "pose": {"x": 0, "y": 0, "theta": 0},
                             "objects": []}) + "\n")
        fh.write("{broken\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(path)


def test_a_width_past_an_integer_names_its_dataset_line_and_skips_its_detection_line(
        tmp_path):
    # int(inf) raises OverflowError, which is not a ValueError.
    line = json.dumps({**json.loads(detection_line("img000", ["sofa"])), "width": math.inf})
    path = tmp_path / "data.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}: line 1: cannot convert float infinity"):
        load_dataset(str(path))
    assert [n for n, _ in convert_detection_lines([line], 1).errors] == [1]


# ----------------------------------------------------------------------
# Pose records: exactly x, y and theta, all finite (README, robustness)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(x=FINITE, y=FINITE, theta=FINITE)
def test_pose_from_json_inverts_pose_to_json_through_json_text(x, y, theta):
    pose = Pose(x=x, y=y, theta=theta)
    assert pose_from_json(json.loads(json.dumps(pose_to_json(pose)))) == pose


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", ["x", "y", "theta"])
def test_pose_rejects_a_value_that_is_not_finite(key, value):
    with pytest.raises(ValueError, match="a pose must be finite"):
        Pose(**{"x": 0.0, "y": 0.0, "theta": 0.0, key: value})


@pytest.mark.parametrize("data", [[0, 0, 0], None, "x y theta"])
def test_pose_from_json_takes_an_object(data):
    with pytest.raises(ValueError, match="a pose has exactly the keys x, y and theta"):
        pose_from_json(data)


# ----------------------------------------------------------------------
# Detection conversion

def detection_line(image_id, nouns):
    return json.dumps({"image_id": image_id, "width": 16, "height": 16,
                       "pose": {"x": 0.0, "y": 0.0, "theta": 0.0},
                       "objects": [{"noun": n, "box": [0.1, 0.1, 0.5, 0.5]}
                                   for n in nouns]})


def test_convert_counts():
    lines = [detection_line("img000", ["sofa", "lamp"])]
    report = convert_detection_lines(lines, 3)
    assert len(report.records) == 1
    assert report.errors == []
    for obj in report.records[0].objects:
        assert len(obj.captions) == 4
        assert obj.captions[0] == obj.noun


def test_convert_empty_input():
    report = convert_detection_lines([], 3)
    assert report.records == [] and report.errors == []


def test_convert_skips_malformed_lines():
    lines = [detection_line("img000", ["sofa"]),
             "not json at all",
             json.dumps({"image_id": "img002", "width": 16, "height": 16,
                         "objects": [{"noun": "tv"}]})]
    report = convert_detection_lines(lines, 1)
    assert [r.image_id for r in report.records] == ["img000"]
    assert [lineno for lineno, _ in report.errors] == [2, 3]


def test_convert_gives_a_line_with_no_pose_the_zero_pose():
    record = json.loads(detection_line("img000", ["sofa"]))
    del record["pose"]
    report = convert_detection_lines([json.dumps(record)], 1)
    assert [r.pose for r in report.records] == [Pose(x=0.0, y=0.0, theta=0.0)]


def test_convert_reference_scale_counts():
    nouns = ["sofa", "lamp", "tv", "bed", "desk", "chair", "shelf",
             "plant", "rug", "door", "sink"]
    lines = [detection_line(f"img{i:04d}", nouns) for i in range(97)]
    report = convert_detection_lines(lines, 10)
    labels = sum(len(r.objects) for r in report.records)
    assert labels == 1067
    assert report.generated_captions == 10670


def test_convert_file_form(tmp_path):
    path = str(tmp_path / "det.jsonl")
    with open(path, "w") as fh:
        fh.write(detection_line("img000", ["sofa"]) + "\n")
    report = convert_detection_lines(read_lines(path), 2)
    assert len(report.records) == 1
    assert report.records[0].objects[0].captions == [
        "sofa", "Where is the sofa?", "I am looking for a sofa."]


def test_read_lines_reads_as_text_mode_and_names_the_line_of_a_bad_byte(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"a\r\nb\rc\n\xe2\x80\xa8d\n")
    assert list(read_lines(str(path))) == ["a\n", "b\n", "c\n", "\u2028d\n"]
    # Far past the first block text mode decodes, and inside a later one.
    path.write_bytes(b"0123456789\n" * 3000 + b"ok \xff\n" + b"more\n")
    with pytest.raises(ValueError, match=f"^{path}: line 3001: not UTF-8 text"):
        list(read_lines(str(path)))
