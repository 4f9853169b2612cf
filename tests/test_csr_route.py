"""Kernels are built, relabeled and read in numpy, at every size.

Every kernel stores a read-only (indptr, indices, data) triple.  Each
model, relabeling and reader below is compared, array by array as
(dtype, shape, bytes), against the scipy route the package took above
DENSE_LIMIT before: COO triplets, or a dense matrix, converted to a
`csr_array` with sorted indices, the shift as `m[:, g.inverse]` and the
transport as `m[np.ix_(gp, gp)]`.  The kernel keeps only the positive
entries, with intp indices, so the route's matrix is compared after
`eliminate_zeros()`, its indices cast to intp.  The models are checked on
both sides of DENSE_LIMIT.
"""
import functools
import itertools
import json
import operator

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import wavechain as w
from wavechain import core, errors, models
from wavechain.sim import _RowTable


def scipy_csr(n, rows, cols, vals):
    """The scipy route: COO triplets to a csr_array with sorted indices."""
    coo = sp.coo_array((vals, (rows, cols)), shape=(n, n))
    return sp.csr_array(coo, dtype=np.float64, copy=True).sorted_indices()


def arrays(csr):
    return csr.indptr, csr.indices, csr.data


def stored(arrs) -> tuple:
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrs)


def kept(csr):
    """The arrays of the scipy route's matrix under the storage rule: its
    stored zeros eliminated, its indices cast to intp."""
    csr = csr.copy()
    csr.eliminate_zeros()
    return csr.indptr.astype(np.intp), csr.indices.astype(np.intp), csr.data


def scipy_document(kernel, csr):
    """`kernel_document` as it read a scipy CSR matrix."""
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    triplets = [
        [r, c, v]
        for r, c, v in zip(rows.tolist(), csr.indices.tolist(), csr.data.tolist())
        if v != 0.0
    ]
    doc = {"size": kernel.size, "triplets": triplets}
    if kernel.space.labels is not None:
        doc["labels"] = list(kernel.space.labels)
    return doc


def assert_same_route(kernel, g, ref):
    """The base, its shift, transports, document and row table against the
    scipy route from the reference matrix `ref`."""
    assert stored(kernel.entries) == stored(kept(ref))
    shifted = w.shift_kernel(kernel, g)
    ref_shifted = ref[:, g.inverse].sorted_indices()
    assert stored(shifted.entries) == stored(kept(ref_shifted))
    for i in (1, 2, 5):
        gp = g.power_map(i - 1)
        got = w.transport_kernel(kernel, g, i)
        assert stored(got.entries) == stored(kept(ref[np.ix_(gp, gp)].sorted_indices()))
    assert json.dumps(w.kernel_document(shifted)) == json.dumps(
        scipy_document(shifted, ref_shifted)
    )
    table = _RowTable(shifted)
    want = _RowTable(w.MarkovKernel(shifted.space, kept(ref_shifted)))
    assert table.width == want.width
    assert stored((table.indices, table.cums)) == stored((want.indices, want.cums))


@pytest.fixture
def recorded(monkeypatch):
    """The scipy route's matrix of each kernel a model builds: from the
    triplets it hands to `_kernel_from_triplets`, or from the dense matrix
    it hands to `make_kernel`."""
    refs = []
    from_triplets, from_matrix = core._kernel_from_triplets, core.make_kernel

    def record_triplets(space, rows, cols, vals):
        refs.append(scipy_csr(space.size, np.array(rows), np.array(cols), np.array(vals)))
        return from_triplets(space, rows, cols, vals)

    def record_matrix(space, entries):
        refs.append(sp.csr_array(np.asarray(entries, dtype=np.float64)).sorted_indices())
        return from_matrix(space, entries)

    monkeypatch.setattr(models, "_kernel_from_triplets", record_triplets)
    monkeypatch.setattr(models, "make_kernel", record_matrix)
    return refs


MODELS = {
    **{
        f"sticky-7-rho{rho}-delta{delta}": (
            lambda rho=rho, delta=delta: w.sticky_permutation_system(7, rho, delta)
        )
        for rho in (0, 17, 5039)
        for delta in (0.05, 0.3)
    },
    "cyclic-to-random-7": lambda: w.cyclic_to_random_system(7),
    "deck-reversal-7": lambda: w.deck_reversal_system(7),
    "binary-cycling-13": lambda: w.binary_cycling_system(13),
    # below DENSE_LIMIT
    "circle-41": lambda: models.build_model("circle", {"n": 41}),
    "lazy-circle-9": lambda: models.build_model("lazy-circle", {"n": 9}),
    "four-point": lambda: models.build_model("four-point", {}),
    "periodic-classes-3-2": lambda: models.build_model(
        "periodic-classes", {"k": 3, "class_size": 2}
    ),
    "binary-cycling-4": lambda: models.build_model("binary-cycling", {"bits": 4}),
    "sticky-4": lambda: w.sticky_permutation_system(4, (0, 1, 2, 3), 0.1),
    "deck-reversal-5": lambda: models.build_model("deck-reversal", {"n": 5}),
}


@pytest.mark.parametrize("build", MODELS.values(), ids=MODELS.keys())
def test_models_store_the_scipy_arrays(recorded, build):
    system = build()
    ref, = recorded
    assert stored(system.shifted.entries) == stored(
        kept(ref[:, system.map.inverse].sorted_indices())
    )
    assert_same_route(system.base, system.map, ref)


def document_triplets():
    """A 6-state document with explicit zeros and entries given twice."""
    rng = np.random.default_rng(5)
    triplets = []
    for r in range(6):
        cols = rng.permutation(6).tolist()
        vals = rng.random(4)
        vals /= vals.sum()
        for c, v in zip(cols, vals.tolist()):
            triplets += [[r, c, v / 2], [r, c, v / 2]] if c % 2 else [[r, c, v]]
        triplets.append([r, cols[4], 0.0])
    order = rng.permutation(len(triplets))
    return [triplets[i] for i in order]


def added_in_order(n, rows, cols, vals):
    """The dense matrix summing vals[k] into (rows[k], cols[k]) in input order."""
    m = np.zeros((n, n))
    np.add.at(m, (np.asarray(rows), np.asarray(cols)), vals)
    return m


def test_documents_below_their_dense_limit_store_the_scipy_arrays():
    triplets = document_triplets()
    assert any(t[2] == 0.0 for t in triplets)
    doc = {"size": 6, "triplets": triplets}
    kernel = w.kernel_from_document(doc)
    rows, cols, vals = (list(t) for t in zip(*triplets))
    ref = scipy_csr(6, rows, cols, vals)
    assert np.any(ref.data == 0.0)  # scipy keeps the explicit zeros
    assert np.all(kernel.entries[2] > 0.0)  # the kernel does not
    assert_same_route(kernel, w.make_permutation(kernel.space, [3, 0, 5, 1, 4, 2]), ref)
    assert kernel.dense().tobytes() == added_in_order(6, rows, cols, vals).tobytes()


def test_a_triplet_given_three_times_sums_in_input_order():
    # a long row of stored zeros: scipy's unstable index sort is free to
    # reorder the three copies there, the dense np.add.at path is not
    n = 40
    copies = list(itertools.permutations((0.7, 0.2, 0.1)))
    triplets = []
    for r, values in enumerate(copies):
        triplets += [[r, c, 0.0] for c in range(1, n)]
        triplets += [[r, 0, v] for v in values]
    triplets += [[r, r, 1.0] for r in range(len(copies), n)]
    doc = {"size": n, "triplets": triplets}
    kernel = w.kernel_from_document(doc)
    rows, cols, vals = (list(t) for t in zip(*triplets))
    dense = added_in_order(n, rows, cols, vals)
    indptr, indices, data = kernel.entries
    for r, values in enumerate(copies):
        first = data[indptr[r]]
        assert indices[indptr[r]] == 0
        assert first == functools.reduce(operator.add, values) == dense[r, 0]
    assert len({float(data[indptr[r]]) for r in range(len(copies))}) == 2


def test_the_csr_products_read_the_stored_arrays():
    # the numpy products read the stored read-only arrays, and give the
    # bits of scipy's products on a view that shares them
    s = w.sticky_permutation_system(7, 0, 0.05)
    for kernel in (s.base, s.shifted):
        indptr, indices, data = kernel.entries
        view = sp.csr_array((data, indices, indptr), shape=(s.space.size,) * 2)
        for got, want in zip(arrays(view), kernel.entries):
            assert np.shares_memory(got, want) and not want.flags.writeable
        x = np.linspace(0.0, 1.0, s.space.size)
        assert core._vec_mat(x, kernel).tobytes() == (x @ view).tobytes()
        assert core._mat_vec(kernel, x).tobytes() == (view @ x).tobytes()


@st.composite
def kernels_with_stored_zeros(draw):
    """A random kernel from triplets, some given as zero, and a vector of
    mixed signs and magnitudes."""
    n = draw(st.integers(1, 12))
    entries = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from([0.0, 1e-300, 0.1, 0.25, 1.0 / 3.0, 0.7, 1.0])),
        max_size=5 * n,
    ))
    entries += [(r, (r + 1) % n, 0.5) for r in range(n)]
    totals = np.zeros(n)
    for r, _, v in entries:
        totals[r] += v
    rows, cols, vals = (list(t) for t in zip(*entries))
    vals = [v / totals[r] for r, v in zip(rows, vals)]
    x = draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=n, max_size=n))
    return n, rows, cols, vals, np.array(x)


@settings(max_examples=200, deadline=None)
@given(kernels_with_stored_zeros())
def test_numpy_csr_products_equal_scipy_bit_for_bit(case):
    # the stationary refinement and `evolve` above DENSE_LIMIT ran on
    # scipy's csr_array products; the numpy ones must keep their bits
    n, rows, cols, vals, x = case
    kernel = core._kernel_from_triplets(w.StateSpace(n), rows, cols, vals)
    indptr, indices, data = kernel.entries
    csr = sp.csr_array((data.copy(), indices.copy(), indptr.copy()), shape=(n, n))
    assert core._vec_mat(x, kernel).tobytes() == (x @ csr).tobytes()
    assert core._mat_vec(kernel, x).tobytes() == (csr @ x).tobytes()


@st.composite
def triplet_systems(draw):
    n = draw(st.integers(2, 7))
    entries = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.floats(0.0, 1.0)),
        max_size=4 * n,
    ))
    # every row keeps some mass, then each is scaled to sum to one
    entries += [(r, (r + 1) % n, 0.5) for r in range(n)]
    totals = np.zeros(n)
    for r, _, v in entries:
        totals[r] += v
    rows, cols, vals = (list(t) for t in zip(*entries))
    vals = [v / totals[r] for r, v in zip(rows, vals)]
    forward = draw(st.permutations(range(n)))
    return n, rows, cols, vals, forward


@settings(max_examples=60, deadline=None)
@given(triplet_systems())
def test_dense_and_csr_storage_agree(case):
    # the dense view of a kernel, and of its shift, is the matrix the
    # triplets add up to in input order; it is validated like that matrix
    n, rows, cols, vals, forward = case
    space = w.StateSpace(n)
    want = added_in_order(n, rows, cols, vals)
    sums_to_one = np.all(np.abs(want.sum(axis=1) - 1.0) <= core.ROW_SUM_TOL)
    try:
        kernel = core._kernel_from_triplets(space, rows, cols, vals)
    except errors.RowSumViolation:
        assert not sums_to_one
        return
    assert kernel.dense().tobytes() == want.tobytes()
    g = w.make_permutation(space, forward)
    shifted = w.make_wave_system(kernel, g).shifted
    assert shifted.dense().tobytes() == want[:, g.inverse].tobytes()


@pytest.mark.parametrize("limit", [2, 4096])
def test_a_stored_zero_is_no_edge(limit, dense_limit, dense_calls):
    # a 3-cycle with an explicit zero on the diagonal keeps period 3, with
    # CSR products above DENSE_LIMIT and dense ones below; the zero is not
    # stored
    with dense_limit(limit):
        doc = {"size": 3, "triplets": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0], [0, 0, 0.0]]}
        kernel = w.kernel_from_document(doc)
        assert core._vec_mat(np.array([1.0, 0.0, 0.0]), kernel).tolist() == [0.0, 1.0, 0.0]
        assert kernel.entries[2].tolist() == [1.0, 1.0, 1.0]
        assert w.is_irreducible(kernel) and w.period(kernel) == 3
        assert w.kernel_document(kernel)["triplets"] == doc["triplets"][:3]
        assert not dense_calls


def test_every_input_form_stores_the_scipy_arrays(corpus):
    m = np.asarray(corpus[3].base.dense())
    space = corpus[3].space
    forms = [m.tolist(), m, sp.coo_matrix(m), sp.csr_matrix(m), sp.coo_array(m), sp.csr_array(m)]
    # COO input with every entry split in two halves, in reverse order,
    # and an explicit zero in each row: the kernel drops the zeros, as the
    # reference's `eliminate_zeros` does, and sums the halves, exactly in
    # either order
    rows, cols = np.nonzero(m)
    rows = np.concatenate([rows, rows[::-1], np.arange(space.size)])
    cols = np.concatenate([cols, cols[::-1], (np.arange(space.size) + 2) % space.size])
    halves = m[np.nonzero(m)] / 2
    vals = np.concatenate([halves, halves[::-1], np.zeros(space.size)])
    assert np.any(m[np.arange(space.size), cols[-space.size:]] == 0.0)
    forms += [sp.coo_array((vals, (rows, cols)), shape=m.shape),
              sp.coo_matrix((vals, (rows, cols)), shape=m.shape)]
    for entries in forms:
        kernel = w.make_kernel(space, entries)
        want = sp.csr_array(entries, dtype=np.float64, copy=True).sorted_indices()
        assert stored(kernel.entries) == stored(kept(want))
        assert kernel.dense().tobytes() == m.tobytes()


def test_csr_kernels_are_validated():
    space = w.StateSpace(2)
    # the offending row is named as for a dense input
    for entries in ([[1.0, 0.0], [1.5, -0.5]], sp.csr_array([[1.0, 0.0], [1.5, -0.5]])):
        with pytest.raises(errors.NegativeEntry, match="negative entry in row 1"):
            w.make_kernel(space, entries)
    with pytest.raises(errors.RowSumViolation):
        w.make_kernel(space, sp.csr_array([[0.5, 0.0], [0.0, 1.0]]))
    for rows, cols in (([0, 2], [0, 1]), ([0, 1], [-1, 1])):
        with pytest.raises(errors.SpaceMismatch):
            core._kernel_from_triplets(space, rows, cols, [1.0, 1.0])
