import numpy as np
import pytest

from slotnav.retrieval import (EmbeddingIndex, GroundTruth, RecallReport,
                               average_recall, batch_topk, build_index,
                               load_ground_truth, load_index, save_ground_truth,
                               save_index, similarity_matrix, top_rows, topk_images)

from _oracles import ranked_ids


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_index(rng, n, d, prefix="img", duplicates=0):
    rows = rng.normal(size=(n, d))
    for i in range(duplicates):
        rows[n - 1 - i] = rows[i]
    return build_index(rows, [f"{prefix}{i:03d}" for i in range(n)])


# ----------------------------------------------------------------------
# Index construction

def test_build_index_shape():
    idx = build_index(np.eye(3), ["a", "b", "c"])
    assert idx.matrix.shape == (3, 3)
    assert len(idx) == 3
    assert idx.ids == ("a", "b", "c")


def test_build_index_normalizes_rows():
    idx = build_index(np.array([[3.0, 4.0], [0.0, 0.5]]), ["a", "b"])
    norms = np.linalg.norm(idx.matrix, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)
    assert np.allclose(idx.matrix[0], [0.6, 0.8])


def test_build_index_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        build_index(np.eye(2), ["a", "a"])


def test_build_index_rejects_count_mismatch():
    with pytest.raises(ValueError):
        build_index(np.eye(3), ["a", "b"])


def test_build_index_rejects_zero_rows():
    with pytest.raises(ValueError):
        build_index(np.array([[0.0, 0.0]]), ["a"])


def test_index_matrix_is_immutable():
    idx = build_index(np.eye(2), ["a", "b"])
    with pytest.raises(ValueError):
        idx.matrix[0, 0] = 5.0


def test_index_constructor_enforces_unit_rows():
    with pytest.raises(ValueError):
        EmbeddingIndex(matrix=np.array([[2.0, 0.0]]), ids=("a",))


# ----------------------------------------------------------------------
# Search

def test_topk_self_retrieval_orthonormal():
    idx = build_index(np.eye(4), ["i0", "i1", "i2", "i3"])
    assert topk_images(idx.matrix[2], idx, 1) == ["i2"]


def test_topk_known_similarities():
    idx = build_index(np.eye(3), ["id0", "id1", "id2"])
    query = np.array([0.1, 0.9, 0.5])
    assert topk_images(query, idx, 2) == ["id1", "id2"]


def test_topk_full_k_is_permutation():
    rng = np.random.default_rng(0)
    idx = random_index(rng, 9, 5)
    out = topk_images(rng.normal(size=5), idx, 9)
    assert sorted(out) == sorted(idx.ids)


def test_topk_rejects_bad_k():
    idx = build_index(np.eye(3), ["a", "b", "c"])
    with pytest.raises(ValueError):
        topk_images(idx.matrix[0], idx, 4)
    with pytest.raises(ValueError):
        topk_images(idx.matrix[0], idx, 0)


def test_topk_rejects_dimension_mismatch():
    idx = build_index(np.eye(3), ["a", "b", "c"])
    with pytest.raises(ValueError):
        topk_images(np.ones(4), idx, 1)


def test_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(1, 20))
        d = int(rng.integers(2, 8))
        dup = int(rng.integers(0, min(n, 4)))
        idx = random_index(rng, n, d, duplicates=dup)
        query = rng.normal(size=d)
        expected = ranked_ids([float(np.dot(row, query)) for row in idx.matrix],
                              list(idx.ids))
        assert topk_images(query, idx, n) == expected


def test_ties_break_by_ascending_id():
    row = unit([1.0, 1.0])
    idx = build_index(np.array([row, row, row]), ["zeta", "alpha", "mid"])
    assert topk_images(np.array([1.0, 1.0]), idx, 3) == ["alpha", "mid", "zeta"]


def test_tie_straddling_kth_place_breaks_by_id():
    scores = [1.0, 0.5, 0.5, 0.5, 0.2]
    ids = ["e", "d", "c", "b", "a"]
    assert [ids[i] for i in top_rows(np.array(scores), ids, 2)] == ["e", "b"]
    half = [0.5, np.sqrt(0.75)]
    idx = build_index(np.array([[1.0, 0.0], half, half, half, [0.2, np.sqrt(0.96)]]), ids)
    assert topk_images(np.array([1.0, 0.0]), idx, 2) == ["e", "b"]


def test_top_rows_matches_full_sort_for_every_k():
    rng = np.random.default_rng(23)
    for trial in range(100):
        n = int(rng.integers(1, 25))
        scores = rng.integers(0, 4, size=n).astype(np.float64)
        ids = [f"i{j:02d}" for j in rng.permutation(n)]
        expected = ranked_ids(list(scores), ids)
        for k in range(1, n + 1):
            assert [ids[i] for i in top_rows(scores, ids, k)] == expected[:k]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_topk_rejects_non_finite_query(bad):
    idx = build_index(np.eye(3), ["a", "b", "c"])
    with pytest.raises(ValueError, match="non-finite"):
        topk_images(np.array([bad, 0.0, 0.0]), idx, 1)


def test_retrieval_invariant_under_row_permutation():
    rng = np.random.default_rng(21)
    idx = random_index(rng, 8, 4, duplicates=2)
    query = rng.normal(size=4)
    perm = rng.permutation(8)
    shuffled = build_index(idx.matrix[perm], [idx.ids[p] for p in perm])
    assert topk_images(query, idx, 8) == topk_images(query, shuffled, 8)


def test_similarity_matrix_shape_and_range():
    rng = np.random.default_rng(3)
    texts = random_index(rng, 5, 6, prefix="t")
    images = random_index(rng, 7, 6, prefix="i")
    sims = similarity_matrix(texts, images)
    assert sims.shape == (5, 7)
    assert np.all(sims <= 1.0 + 1e-6) and np.all(sims >= -1.0 - 1e-6)


def test_batch_topk_matches_single_queries():
    rng = np.random.default_rng(5)
    texts = random_index(rng, 4, 6, prefix="t")
    images = random_index(rng, 6, 6, prefix="i")
    batched = batch_topk(texts, images, 3)
    assert set(batched) == set(texts.ids)
    for qid, row in zip(texts.ids, texts.matrix):
        assert batched[qid] == topk_images(row, images, 3)


# ----------------------------------------------------------------------
# Metrics

def test_average_recall_all_hits():
    gt = GroundTruth(relevant={"q0": frozenset({"a"}), "q1": frozenset({"b"})})
    report = average_recall({"q0": ["a", "b"], "q1": ["b", "a"]}, gt, 1)
    assert report.values[1] == 1.0


def test_average_recall_hand_counted():
    gt = GroundTruth(relevant={"q0": frozenset({"a"}), "q1": frozenset({"e"})})
    results = {"q0": ["a", "b", "c", "d", "e"],
               "q1": ["a", "b", "e", "c", "d"]}
    report = average_recall(results, gt, (1, 5))
    assert report.values[1] == 0.5
    assert report.values[5] == 1.0
    # q0 finds its item at rank 1 and q1 does not.
    assert [average_recall({q: results[q]}, gt, 1).values[1] for q in ("q0", "q1")] == \
        [1.0, 0.0]


def test_average_recall_monotone_in_k():
    rng = np.random.default_rng(9)
    ids = [f"i{j}" for j in range(10)]
    results = {f"q{i}": list(rng.permutation(ids)) for i in range(6)}
    gt = GroundTruth(relevant={f"q{i}": frozenset(rng.choice(ids, size=2))
                               for i in range(6)})
    report = average_recall(results, gt, (1, 3, 5, 10))
    vals = [report.values[k] for k in (1, 3, 5, 10)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_average_recall_missing_query_warns_and_misses():
    gt = GroundTruth(relevant={"q0": frozenset({"a"})})
    with pytest.warns(UserWarning):
        report = average_recall({"q0": ["a"], "q1": ["a"]}, gt, 1)
    assert report.values[1] == 0.5
    with pytest.warns(UserWarning):
        assert average_recall({"q1": ["a"]}, gt, 1).values[1] == 0.0


def test_average_recall_requires_enough_results():
    gt = GroundTruth(relevant={"q0": frozenset({"a"})})
    with pytest.raises(ValueError):
        average_recall({"q0": ["a"]}, gt, 2)


def test_recall_report_rejects_decreasing_values():
    with pytest.raises(ValueError):
        RecallReport(values={1: 0.8, 5: 0.4})
    with pytest.raises(ValueError):
        RecallReport(values={1: 1.5})


# ----------------------------------------------------------------------
# File formats

def test_index_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    idx = random_index(rng, 6, 8)
    path = str(tmp_path / "emb.lze")
    save_index(idx, path)
    back = load_index(path)
    assert back.ids == idx.ids
    # float32 storage rounds the payload; rows come back renormalized.
    assert np.allclose(back.matrix, idx.matrix, atol=1e-6)
    assert np.all(np.abs(np.linalg.norm(back.matrix, axis=1) - 1.0) <= 1e-9)


def test_index_file_layout(tmp_path):
    idx = build_index(np.eye(2), ["a", "b"])
    path = str(tmp_path / "emb.lze")
    save_index(idx, path)
    blob = open(path, "rb").read()
    assert blob[:4] == b"LZE1"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:12], "little") == 2
    assert blob[12:28] == np.eye(2, dtype="<f4").tobytes()
    assert blob[28:] == b"a\nb\n"


def test_load_index_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bad.lze")
    open(path, "wb").write(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ValueError):
        load_index(path)


def test_load_index_rejects_truncation(tmp_path):
    rng = np.random.default_rng(17)
    idx = random_index(rng, 4, 4)
    path = str(tmp_path / "emb.lze")
    save_index(idx, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:20])
    with pytest.raises(ValueError):
        load_index(path)


def test_save_index_rejects_newline_ids(tmp_path):
    idx = EmbeddingIndex(matrix=np.eye(2), ids=("a\nb", "c"))
    with pytest.raises(ValueError):
        save_index(idx, str(tmp_path / "emb.lze"))


def test_ground_truth_round_trip(tmp_path):
    gt = GroundTruth(relevant={"q0": frozenset({"a", "b"}),
                               "q1": frozenset({"b"})})
    path = str(tmp_path / "gt.tsv")
    save_ground_truth(gt, path)
    assert load_ground_truth(path).relevant == gt.relevant


def test_ground_truth_malformed_line(tmp_path):
    path = str(tmp_path / "gt.tsv")
    open(path, "w").write("q0\ta\nq1 b\n")
    with pytest.raises(ValueError, match="line 2"):
        load_ground_truth(path)


def test_ground_truth_unknown_id_check(tmp_path):
    path = str(tmp_path / "gt.tsv")
    open(path, "w").write("q0\tmissing\n")
    idx = build_index(np.eye(2), ["a", "b"])
    with pytest.raises(ValueError, match="missing"):
        load_ground_truth(path, index=idx)
    # Without an index the pairs load as-is.
    assert load_ground_truth(path).for_query("q0") == frozenset({"missing"})


def test_orthonormal_self_retrieval_recall():
    idx = build_index(np.eye(6), [f"i{j}" for j in range(6)])
    queries = build_index(np.eye(6), [f"q{j}" for j in range(6)])
    results = batch_topk(queries, idx, 6)
    gt = GroundTruth(relevant={f"q{j}": frozenset({f"i{j}"}) for j in range(6)})
    report = average_recall(results, gt, (1, 3))
    assert report.values[1] == 1.0
    assert report.values[3] == 1.0
