"""Prompts, caption records and seeded caption augmentation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .autodiff import derive_seed

Array = np.ndarray


# ----------------------------------------------------------------------
# Prompts

PROMPT_SEPARATOR = ". "


def build_prompt(noun: str, sentence: str) -> str:
    """Format the object noun, then the sentence."""
    if not noun:
        raise ValueError("noun must be nonempty")
    if PROMPT_SEPARATOR in noun:
        raise ValueError("noun may not contain the prompt separator")
    return noun + PROMPT_SEPARATOR + sentence


# ----------------------------------------------------------------------
# Caption generation

STUB_SENTENCE_BANK = (
    "Where is the {noun}?",
    "I am looking for a {noun}.",
    "Can you find the {noun}?",
    "Please take me to the {noun}.",
    "Is there a {noun} nearby?",
    "Show me where the {noun} is.",
    "I need to use the {noun}.",
    "Guide me to the {noun}.",
    "Do you see a {noun} around here?",
    "Head over to the {noun}.",
    "I want to check on the {noun}.",
    "Which way is the {noun}?",
)


def noun_to_sentences(noun: str, count: int, seed: int = 0, start: int = 0) -> list[str]:
    """Sentences start .. start + count - 1 about the noun, all distinct.

    Sentence i fills template i of STUB_SENTENCE_BANK; past the bank come
    numbered variations, offset by the seed so different seeds diverge while
    the same seed replays exactly.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not noun:
        raise ValueError("noun must be nonempty")
    bank = len(STUB_SENTENCE_BANK)
    base = derive_seed(seed, "variation", 0) % 1000
    return [STUB_SENTENCE_BANK[i].format(noun=noun) if i < bank
            else f"Tell me where the {noun} is, variation {base + i - bank + 1}."
            for i in range(start, start + count)]


# ----------------------------------------------------------------------
# Dataset records

def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.pi - ((math.pi - theta) % (2.0 * math.pi))


@dataclass(frozen=True)
class Pose:
    """Camera pose in world meters: position and heading in radians, all
    finite."""

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError(f"a pose must be finite, got x={self.x}, y={self.y}, "
                             f"theta={self.theta}")
        object.__setattr__(self, "theta", normalize_angle(float(self.theta)))


@dataclass
class CaptionedObject:
    """One annotated object: noun, normalized corner box, caption list."""

    noun: str
    box: Array
    captions: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.box = np.asarray(self.box, dtype=np.float64).reshape(4)
        x1, y1, x2, y2 = self.box
        if not (0.0 <= x1 <= x2 <= 1.0 and 0.0 <= y1 <= y2 <= 1.0):
            raise ValueError(f"invalid normalized box {self.box.tolist()}")
        if not isinstance(self.noun, str) or not self.noun:
            raise ValueError(f"object noun must be a nonempty string, got {self.noun!r}")


@dataclass
class CaptionRecord:
    """One image's annotations; every object carries at least one caption."""

    image_id: str
    width: int
    height: int
    pose: Pose
    objects: list[CaptionedObject]

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        for obj in self.objects:
            if not obj.captions:
                raise ValueError(f"object {obj.noun!r} in {self.image_id!r} "
                                 "has no captions")


def pose_to_json(pose: Pose) -> dict:
    return {"x": pose.x, "y": pose.y, "theta": pose.theta}


def pose_from_json(data) -> Pose:
    """A pose record: an object with exactly the numbers x, y and theta."""
    if not isinstance(data, dict) or sorted(data) != ["theta", "x", "y"]:
        raise ValueError(f"a pose has exactly the keys x, y and theta, got {data!r}")
    return Pose(x=float(data["x"]), y=float(data["y"]), theta=float(data["theta"]))


def record_to_json(record: CaptionRecord) -> dict:
    return {"image_id": record.image_id,
            "width": record.width,
            "height": record.height,
            "pose": pose_to_json(record.pose),
            "objects": [{"noun": o.noun,
                         "box": [float(v) for v in o.box],
                         "captions": list(o.captions)}
                        for o in record.objects]}


def record_from_json(data: dict) -> CaptionRecord:
    return CaptionRecord(
        image_id=str(data["image_id"]),
        width=int(data["width"]),
        height=int(data["height"]),
        pose=pose_from_json(data["pose"]),
        objects=[CaptionedObject(noun=o["noun"],
                                 box=o["box"],
                                 captions=list(o["captions"]))
                 for o in data["objects"]])


def read_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, read in text mode; a byte that is not
    UTF-8 raises ValueError naming the file and the line that holds it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        # Text mode decodes ahead of the lines it yields, so the line comes
        # from where a decode of the whole file stops.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}: line {line}: not UTF-8 text ({exc})") from None
        raise


def read_jsonl(path: str, parse: Callable[[dict], Any]) -> list:
    """Each nonblank line of a JSONL file, a JSON object, passed through parse;
    a file with none raises ValueError naming it, and a bad line its line too."""
    records = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"expected a JSON object, got {type(record).__name__}")
            records.append(parse(record))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {lineno}: bad JSON record ({exc.msg})")
        except KeyError as exc:
            raise ValueError(f"{path}: line {lineno}: missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    if not records:
        raise ValueError(f"{path}: no records")
    return records


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    """Write each record as one line of JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def save_dataset(records: Sequence[CaptionRecord], path: str) -> None:
    """Write records as line-delimited JSON."""
    write_jsonl(path, map(record_to_json, records))


def load_dataset(path: str) -> list[CaptionRecord]:
    """Read a line-delimited JSON dataset, validating every record; an
    image_id that repeats raises ValueError naming the file and the line."""
    seen = set()

    def parse(data: dict) -> CaptionRecord:
        record = record_from_json(data)
        if record.image_id in seen:
            raise ValueError(f"image_id {record.image_id!r} repeats an earlier record")
        seen.add(record.image_id)
        return record

    return read_jsonl(path, parse)


# ----------------------------------------------------------------------
# Detection-dataset conversion

@dataclass
class ConversionReport:
    """Converted records plus (line number, message) for skipped lines."""

    records: list[CaptionRecord]
    errors: list[tuple[int, str]]

    @property
    def generated_captions(self) -> int:
        return sum(len(o.captions) - 1
                   for r in self.records for o in r.objects)


def convert_detection_lines(lines: Iterable[str], count: int,
                            seed: int = 0) -> ConversionReport:
    """Augment detection records (noun + box) into multi-caption records.

    Caption 0 stays the raw noun; the next count captions come from
    noun_to_sentences.  A run of consecutive objects with one noun, in file
    order and across lines, continues one numbering, so its captions never
    repeat; any other noun starts again at sentence 0.  The objects of a line
    that is then skipped count too.  A line with no pose gets the zero pose.
    Malformed lines are skipped and reported.
    """
    records: list[CaptionRecord] = []
    errors: list[tuple[int, str]] = []
    run_noun, run_length = None, 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            objects = []
            for entry in data["objects"]:
                noun = entry["noun"]
                start = run_length if noun == run_noun else 0
                captions = [noun] + noun_to_sentences(noun, count, seed, start)
                run_noun, run_length = noun, start + count
                objects.append({**entry, "captions": captions})
            records.append(record_from_json({"pose": pose_to_json(Pose(0.0, 0.0, 0.0)),
                                             **data, "objects": objects}))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            errors.append((lineno, str(exc) or type(exc).__name__))
    return ConversionReport(records=records, errors=errors)
