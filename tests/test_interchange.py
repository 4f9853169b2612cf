import json

import numpy as np
import pytest
import scipy.sparse as sp

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
    doc = {"size": 2, "labels": ["a", 2], "triplets": [[0, 0, 1.0], [1, 1, 1.0]]}
    assert w.kernel_from_document(doc).space.labels == ("a", 2)  # a number label loads


def test_kernel_document_validation():
    with pytest.raises(errors.ConfigInvalid):
        w.kernel_from_document({"size": 2})
    with pytest.raises(errors.ConfigInvalid):
        w.kernel_from_document({"size": 2, "triplets": [[0, 5, 1.0]]})
    with pytest.raises(errors.ConfigInvalid):
        w.kernel_from_document({"size": 2, "triplets": [[0, 0, 1.0, 9]]})


@pytest.mark.parametrize(
    "doc",
    [
        {"size": 2, "triplets": [1, 2]},
        {"size": 2, "triplets": 5},
        {"size": 2, "triplets": [[0, 0, None], [1, 1, 1.0]]},
        {"size": 2, "triplets": [[0, 0, [1.0]], [1, 1, 1.0]]},
        {"size": 2, "labels": 5, "triplets": [[0, 0, 1.0], [1, 1, 1.0]]},
        {"size": 2, "labels": [[1], [2]], "triplets": [[0, 0, 1.0], [1, 1, 1.0]]},
        {"size": 2, "labels": [{"a": 1}, "b"], "triplets": [[0, 0, 1.0], [1, 1, 1.0]]},
    ],
    ids=["triplet-not-a-list", "triplets-not-a-list", "null-value", "list-value", "labels-number",
         "label-arrays", "label-object"],
)
def test_kernel_document_shapes_are_checked(doc):
    with pytest.raises(errors.ConfigInvalid):
        w.kernel_from_document(doc)


ONE_ROW_EACH = [[0, 0, 1.0], [1, 1, 1.0]]


@pytest.mark.parametrize(
    "load, doc",
    [
        (w.kernel_from_document, {"size": 2, "labels": ["a"], "triplets": ONE_ROW_EACH}),
        (w.kernel_from_document, {"size": 2, "labels": ["a", "a"], "triplets": ONE_ROW_EACH}),
        (w.kernel_from_document, {"size": 0, "triplets": ONE_ROW_EACH}),
        (w.kernel_from_document, {"size": -1, "triplets": ONE_ROW_EACH}),
        (w.kernel_from_document, {"size": 2, "labels": [None, 1], "triplets": ONE_ROW_EACH}),
        (w.kernel_from_document, {"size": 2, "triplets": [[0, 0, 1.0], [1, 2, 1.0]]}),
        (w.permutation_from_document, {"size": 0, "forward": []}),
        (w.permutation_from_document, {"size": 3, "forward": "012"}),
    ],
    ids=["label-count", "duplicate-labels", "kernel-size-0", "kernel-size-minus-1",
         "null-label", "triplet-outside", "permutation-size-0", "forward-string"],
)
def test_document_loaders_raise_config_invalid(load, doc):
    # never a bare ValueError from the state space, and nothing that the
    # checks name as malformed loads
    with pytest.raises(errors.ConfigInvalid):
        load(doc)


def test_a_permutation_document_of_another_size_is_config_invalid():
    doc = {"size": 3, "forward": [2, 0, 1]}
    with pytest.raises(errors.ConfigInvalid, match="differs from the target space"):
        w.permutation_from_document(doc, w.StateSpace(4))
    assert w.permutation_from_document(doc, w.StateSpace(3)).forward.tolist() == [2, 0, 1]


def test_row_sum_violation_carries_the_row_index():
    doc = {
        "size": 2,
        "triplets": [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.4]],
    }
    with pytest.raises(errors.RowSumViolation) as exc:
        w.kernel_from_document(doc)
    assert "row 1" in str(exc.value)


@pytest.mark.parametrize("limit", [1, 4096])
def test_nan_triplet_is_rejected(limit, dense_limit):
    # JSON readers accept the NaN literal, on either side of DENSE_LIMIT
    doc = json.loads('{"size": 2, "triplets": [[0, 0, NaN], [1, 1, 1.0]]}')
    with dense_limit(limit), pytest.raises(errors.RowSumViolation):
        w.kernel_from_document(doc)


def test_load_kernel_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(errors.ConfigInvalid):
        w.load_kernel(str(path))


def coo_kernel_document(kernel):
    """The document as it was built through scipy's COO format."""
    indptr, indices, data = kernel.entries
    coo = sp.csr_array((data, indices, indptr), shape=(kernel.size,) * 2).tocoo()
    triplets = sorted(
        [int(r), int(c), float(v)] for r, c, v in zip(coo.row, coo.col, coo.data) if v != 0.0
    )
    doc = {"size": kernel.size, "triplets": triplets}
    if kernel.space.labels is not None:
        doc["labels"] = list(kernel.space.labels)
    return doc


def test_saved_documents_equal_the_coo_built_ones(corpus):
    kernels = [s.shifted for s in corpus[:20]]
    kernels += [w.sticky_permutation_system(7, 5, 0.2).shifted,  # CSR, columns permuted
                w.binary_cycling_system(13).base,  # CSR above DENSE_LIMIT
                w.binary_cycling_system(4).shifted,
                w.four_point_example().base]
    for kernel in kernels:
        want = json.dumps(coo_kernel_document(kernel), sort_keys=True)
        assert json.dumps(w.kernel_document(kernel), sort_keys=True) == want


def test_duplicated_triplets_sum_in_input_order():
    # 0.7 + 0.2 + 0.1 is 0.9999999999999999 in this order and 1.0 sorted
    triplets = [[0, 1, 0.7], [0, 1, 0.2], [1, 0, 1.0], [0, 1, 0.1], [2, 2, 0.25],
                [2, 2, 0.75]]
    rows, cols, vals = (list(t) for t in zip(*triplets))
    coo = sp.coo_array((vals, (rows, cols)), shape=(3, 3))
    doc = {"size": 3, "triplets": triplets}
    kernel = w.kernel_from_document(doc)
    assert kernel.dense().tobytes() == coo.toarray().tobytes()
    assert kernel.dense()[0, 1] == 0.9999999999999999 != 0.1 + 0.2 + 0.7
    want = sp.csr_array(coo, dtype=np.float64, copy=True)
    for got, name in zip(kernel.entries, ("indptr", "indices", "data")):
        ref = getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


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


def test_permutation_document_rejects_images_that_are_not_integers():
    with pytest.raises(errors.ConfigInvalid):
        w.permutation_from_document({"size": 3, "forward": [0.7, 1.2, 2.9]})
    with pytest.raises(errors.ConfigInvalid):
        w.permutation_from_document({"size": 3.5, "forward": [0, 1, 2]})
    for doc in ({"size": "2", "forward": [1, 0]}, {"size": 2, "forward": ["1", "0"]}):
        with pytest.raises(errors.ConfigInvalid):  # a number quoted as a string
            w.permutation_from_document(doc)
    g = w.permutation_from_document({"size": 3.0, "forward": [2.0, 0, 1]})
    assert g.forward.tolist() == [2, 0, 1]


@pytest.mark.parametrize("limit", [1, 4096])
def test_kernel_document_rejects_indices_that_are_not_integers(limit, dense_limit):
    with dense_limit(limit):
        for doc in (
            {"size": 2, "triplets": [[0.9, 1, 1.0], [1, 0.2, 1.0]]},
            {"size": 2, "triplets": [[0, 1, 1.0], [1, 0.5, 1.0]]},
            {"size": 2.5, "triplets": [[0, 1, 1.0], [1, 0, 1.0]]},
            # numbers quoted as strings
            {"size": 2, "triplets": [["0", "1", "1.0"], [1, " 0 ", 1]]},
            {"size": 2, "triplets": [[0, 1, "1.0"], [1, 0, 1.0]]},
            {"size": "2", "triplets": [[0, 1, 1.0], [1, 0, 1.0]]},
        ):
            with pytest.raises(errors.ConfigInvalid):
                w.kernel_from_document(doc)
        doc = {"size": 2.0, "triplets": [[0.0, 1, 1.0], [1, 0.0, 1.0]]}
        k = w.kernel_from_document(doc)
        assert [a.tolist() for a in k.entries] == [[0, 1, 2], [1, 0], [1.0, 1.0]]
        indptr, indices, data = k.entries
        csr = sp.csr_array((data, indices, indptr), shape=(2, 2))
        assert csr.toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_booleans_are_neither_integers_nor_numbers():
    from wavechain.interchange import _integer, _number

    for value in (True, False, np.bool_(True)):
        with pytest.raises(errors.ConfigInvalid, match="steps .* is not an integer"):
            _integer(value, "steps")
        with pytest.raises(errors.ConfigInvalid, match="eps .* is not a number"):
            _number(value, "eps")
    assert _integer(np.int64(3), "n") == 3 and _integer(4.0, "n") == 4
    assert _number(1, "eps") == 1.0
    with pytest.raises(errors.ConfigInvalid, match="eps '0.5' is not a number"):
        _number("0.5", "eps")
    for doc in (
        {"size": 2, "triplets": [[0, 1, True], [1, 0, 1.0]]},
        {"size": 2, "triplets": [[0, True, 1.0], [1, 0, 1.0]]},
        {"size": True, "triplets": [[0, 0, 1.0]]},
    ):
        with pytest.raises(errors.ConfigInvalid):
            w.kernel_from_document(doc)


def test_a_document_larger_than_its_triplets_allocates_nothing():
    # a stochastic kernel has at least one entry per row; the size is
    # checked against the triplets before any array is made
    with pytest.raises(errors.ConfigInvalid, match="kernel size 100000000000 exceeds its 0"):
        w.kernel_from_document({"size": 100_000_000_000, "triplets": []})
    with pytest.raises(errors.ConfigInvalid, match="kernel size 3 exceeds its 2 triplets"):
        w.kernel_from_document({"size": 3, "triplets": [[0, 0, 1.0], [1, 1, 1.0]]})
    one_per_row = {"size": 2, "triplets": [[0, 1, 1.0], [1, 0, 1.0]]}
    assert w.kernel_from_document(one_per_row).dense().tolist() == [[0.0, 1.0], [1.0, 0.0]]
