import json

import numpy as np
import pytest

import wavechain as w
from wavechain import errors
from wavechain.interchange import _csv_text


def test_kernel_document_round_trip(tmp_path):
    kern, _ = w.circle_kernel(5, 1.0)
    doc = w.kernel_document(kern)
    assert sorted(doc) == ["size", "triplets"]
    back = w.kernel_from_document(doc)
    assert np.array_equal(kern.dense(), back.dense())

    path = tmp_path / "k.json"
    w.save_kernel(kern, str(path))
    loaded = w.load_kernel(str(path))
    assert np.array_equal(kern.dense(), loaded.dense())


def test_triplets_are_sorted_and_sparse():
    kern, _ = w.circle_kernel(5, 2.0)
    doc = w.kernel_document(kern)
    triplets = doc["triplets"]
    assert triplets == sorted(triplets)
    assert all(v > 0 for _, _, v in triplets)
    assert len(triplets) == 10  # two neighbours per state


def test_labels_survive_the_round_trip():
    s = w.four_point_example()
    doc = w.kernel_document(s.base)
    assert doc["labels"] == ["1", "2", "3", "4"]
    back = w.kernel_from_document(doc)
    assert back.space.labels == ("1", "2", "3", "4")


def test_kernel_document_validation():
    with pytest.raises(errors.ConfigInvalid):
        w.kernel_from_document({"size": 2})
    with pytest.raises(errors.ConfigInvalid):
        w.kernel_from_document({"size": 2, "triplets": [[0, 5, 1.0]]})
    with pytest.raises(errors.ConfigInvalid):
        w.kernel_from_document({"size": 2, "triplets": [[0, 0, 1.0, 9]]})


def test_row_sum_violation_carries_the_row_index():
    doc = {
        "size": 2,
        "triplets": [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.4]],
    }
    with pytest.raises(errors.RowSumViolation) as exc:
        w.kernel_from_document(doc)
    assert "row 1" in str(exc.value)


def test_load_kernel_honours_dense_limit(tmp_path):
    kern, _ = w.circle_kernel(5, 1.0)
    path = tmp_path / "k.json"
    w.save_kernel(kern, str(path))
    assert not w.load_kernel(str(path)).is_sparse
    small = w.load_kernel(str(path), dense_limit=2)
    assert small.is_sparse
    assert np.array_equal(small.dense(), kern.dense())


def test_load_kernel_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(errors.ConfigInvalid):
        w.load_kernel(str(path))


def test_permutation_document_round_trip():
    g = w.circle_shift(7, 2)
    doc = w.permutation_document(g)
    assert sorted(doc) == ["forward", "size"]
    back = w.permutation_from_document(doc)
    assert np.array_equal(g.forward, back.forward)
    assert json.dumps(doc)  # plain data, no numpy leakage


def test_csv_text_dialect():
    # the one CSV writer: header row, \n line ends, floats as their repr
    text = _csv_text(
        ["state", "mass"],
        [(0, 0.1), ("b", np.float64(1 / 3)), (2, float("inf")), (3, "inf"), (4, 7),
         (5, np.float64(2.5e-05))],
    )
    assert text == "state,mass\n0,0.1\nb,0.3333333333333333\n2,inf\n3,inf\n4,7\n5,2.5e-05\n"
    assert "\r" not in text
    assert _csv_text(["n", "time"], []) == "n,time\n"
