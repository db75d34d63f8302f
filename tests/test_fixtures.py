import collections
import os

import numpy as np
import pytest

from slotnav.encoder import read_ppm
from slotnav.fixtures import (IMAGE_NOUNS, NAV_CELL_M, NAV_START, NAV_WORLD_TEXT, NOUN_COLORS,
                              QUERY_SENTENCES, SCENE_BACKGROUNDS,
                              nav_memory_entries, nav_query_records,
                              nav_query_rows, ortho_indexes,
                              render_image, training_images, training_records,
                              write_fixture_bundle)
from slotnav.navsim import FovParams, Pose, execute_episode, parse_world, success_rate
from slotnav.promptgen import load_dataset, record_to_json
from slotnav.retrieval import average_recall, load_ground_truth, load_index, topk_images
from slotnav.navsim import load_world


# ----------------------------------------------------------------------
# Images and records

def test_render_image_shape_and_colors():
    image = render_image(("cup", "book"), background=(0.5, 0.5, 0.5))
    assert image.shape == (16, 16, 3)
    assert image.min() >= 0.0 and image.max() <= 1.0
    assert tuple(image[0, 0]) == (0.5, 0.5, 0.5)
    assert tuple(image[2, 1]) == NOUN_COLORS["cup"]
    assert tuple(image[2, 9]) == NOUN_COLORS["book"]


def test_render_image_rejects_bad_object_counts():
    with pytest.raises(ValueError):
        render_image((), (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        render_image(("cup", "book", "lamp", "sofa"), (0.5, 0.5, 0.5))


def test_image_noun_sets_are_unique_and_balanced():
    assert len(IMAGE_NOUNS) == 8
    assert len(set(IMAGE_NOUNS)) == 8
    counts = collections.Counter(n for nouns in IMAGE_NOUNS for n in nouns)
    assert set(counts) == set(NOUN_COLORS)
    assert all(count == 3 for count in counts.values())


def test_backgrounds_are_distinct_per_image():
    assert len(SCENE_BACKGROUNDS) == len(IMAGE_NOUNS)
    assert len(set(SCENE_BACKGROUNDS)) == len(IMAGE_NOUNS)


def test_training_records_shape():
    records = training_records()
    assert [r.image_id for r in records] == [f"img{i:03d}" for i in range(8)]
    for record, nouns in zip(records, IMAGE_NOUNS):
        assert tuple(o.noun for o in record.objects) == nouns
        for obj in record.objects:
            assert obj.captions[0] == obj.noun
            assert obj.captions[1] == QUERY_SENTENCES[obj.noun]
            x0, y0, x1, y1 = obj.box
            assert 0.0 <= x0 < x1 <= 1.0
            assert 0.0 <= y0 < y1 <= 1.0


def test_query_sentences_avoid_their_nouns():
    for noun, sentence in QUERY_SENTENCES.items():
        assert noun not in sentence.lower()


def test_training_images_match_records():
    images = training_images()
    assert sorted(images) == [r.image_id for r in training_records()]
    stacked = np.stack([images[f"img{i:03d}"] for i in range(8)])
    flat = stacked.reshape(8, -1)
    assert len({tuple(row) for row in flat}) == 8


# ----------------------------------------------------------------------
# Navigation fixture

def fixture_episodes(fov=FovParams()):
    world = parse_world(NAV_WORLD_TEXT, cell_m=NAV_CELL_M)
    memory = nav_memory_entries()
    _, rows = nav_query_rows()
    start = Pose(**NAV_START)
    episodes = []
    for record, row in zip(nav_query_records(), rows):
        episodes.append(execute_episode(
            record["sentence"], record["noun"], memory, world, record["k"],
            lambda _prompt, row=row: row, start, fov=fov))
    return episodes


def test_nav_world_layout():
    world = parse_world(NAV_WORLD_TEXT, cell_m=NAV_CELL_M)
    assert world.grid.shape == (15, 15)
    assert int(world.grid.sum()) == 3
    assert all(world.grid[4, c] for c in (6, 7, 8))
    assert sorted(o.noun for o in world.objects) == ["lamp", "plant", "sofa"]


def test_memory_embeddings_are_orthonormal():
    entries = nav_memory_entries()
    matrix = np.stack([e.embedding for e in entries])
    assert np.allclose(matrix @ matrix.T, np.eye(len(entries)))


def test_query_rows_rank_their_intended_memories():
    ids, rows = nav_query_rows()
    assert ids == ["ep0", "ep1", "ep2", "ep3"]
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
    entries = nav_memory_entries()
    matrix = np.stack([e.embedding for e in entries])
    order = [e.image_id for e in entries]
    expected = [("m0",), ("m1",), ("m2",), ("m3", "m4")]
    for row, ranking in zip(rows, expected):
        scores = matrix @ row
        ranked = [order[i] for i in np.argsort(-scores)[:len(ranking)]]
        assert tuple(ranked) == ranking


def test_episode_hand_traces():
    ep0, ep1, ep2, ep3 = fixture_episodes()

    assert ep0.ranked_ids == ["m0"]
    assert ep0.object_in_fov and ep0.distance == pytest.approx(0.5)
    assert len(ep0.visited) == 1
    assert ep0.path_cells == 12

    assert ep1.ranked_ids == ["m1"]
    assert not ep1.object_in_fov
    assert ep1.distance == pytest.approx(0.5)

    assert ep2.ranked_ids == ["m2"]
    assert ep2.object_in_fov and ep2.distance == pytest.approx(1.25)

    assert ep3.ranked_ids == ["m3", "m4"]
    assert len(ep3.visited) == 2
    assert ep3.object_in_fov and ep3.distance == pytest.approx(0.75)
    assert ep3.path_cells == 20


def test_success_rates_match_hand_counts():
    episodes = fixture_episodes()
    near = success_rate(episodes, 1.0)
    far = success_rate(episodes, 2.0)
    assert near.success_rate == pytest.approx(0.5)
    assert far.success_rate == pytest.approx(0.75)
    assert near.fov_rate == far.fov_rate == pytest.approx(0.75)
    assert far.success_rate >= near.success_rate


def test_wall_occlusion_is_what_blocks_m3():
    episodes = fixture_episodes(fov=FovParams(occlusion=False))
    ep3 = episodes[3]
    assert len(ep3.visited) == 1
    assert ep3.object_in_fov


# ----------------------------------------------------------------------
# Orthonormal retrieval fixture

def test_ortho_fixture_self_retrieves():
    items, queries, gt = ortho_indexes()
    results = {qid: topk_images(row, items, 1) for qid, row in zip(queries.ids, queries.matrix)}
    report = average_recall(results, gt, 1)
    assert report.values[1] == 1.0


# ----------------------------------------------------------------------
# Bundle round trip

def test_fixture_bundle_round_trips(tmp_path):
    paths = write_fixture_bundle(str(tmp_path))
    expected = {"dataset.jsonl", "detection.jsonl", "world.txt",
                "image_poses.jsonl",
                "nav_memory.lze", "nav_memory_poses.jsonl",
                "nav_queries.lze", "nav_queries.jsonl",
                "ortho_index.lze", "ortho_queries.lze", "ortho_gt.tsv"}
    expected |= {f"img{i:03d}.ppm" for i in range(8)}
    assert set(paths) == expected
    for path in paths.values():
        assert os.path.exists(path)

    records = load_dataset(paths["dataset.jsonl"])
    assert ([record_to_json(r) for r in records]
            == [record_to_json(r) for r in training_records()])

    world = load_world(paths["world.txt"])
    assert world.grid.shape == (15, 15)

    memory = load_index(paths["nav_memory.lze"])
    assert list(memory.ids) == [e.image_id for e in nav_memory_entries()]
    assert np.allclose(memory.matrix @ memory.matrix.T, np.eye(6))

    queries = load_index(paths["nav_queries.lze"])
    assert list(queries.ids) == ["ep0", "ep1", "ep2", "ep3"]

    items = load_index(paths["ortho_index.lze"])
    gt = load_ground_truth(paths["ortho_gt.tsv"], items, paths["ortho_index.lze"])
    assert gt.for_query("q0") == frozenset({"item0"})

    images = training_images()
    for i in range(8):
        loaded = read_ppm(paths[f"img{i:03d}.ppm"])
        assert loaded.shape == (16, 16, 3)
        assert np.max(np.abs(loaded - images[f"img{i:03d}"])) <= 1.0 / 255.0


def test_nav_query_records_carry_prompts(tmp_path):
    for record in nav_query_records():
        assert record["noun"] in QUERY_SENTENCES
        assert record["sentence"] == QUERY_SENTENCES[record["noun"]]
        assert record["k"] >= 1
        assert set(record["start"]) == {"x", "y", "theta"}
