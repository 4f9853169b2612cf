"""One storage rule: a kernel is dense up to `dense_limit` and a csr_array above.

Every corpus system is rebuilt with `dense_limit=2`, so its kernels are
sparse, and each operation is compared against the dense original.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import wavechain as w
import wavechain.spectral as spectral
from wavechain import cli
from wavechain.sim import _RowTable


def sparse_twin(system):
    base = w.make_kernel(system.space, system.base.matrix, dense_limit=2)
    return w.make_wave_system(base, system.map)


@pytest.fixture(scope="module")
def pairs(corpus):
    return [(s, sparse_twin(s)) for s in corpus]


def test_twins_differ_only_in_storage(pairs):
    for dense, sparse in pairs:
        assert not dense.base.is_sparse and not dense.shifted.is_sparse
        assert isinstance(sparse.base.matrix, sp.csr_array)
        assert isinstance(sparse.shifted.matrix, sp.csr_array)
        assert np.array_equal(sparse.base.dense(), dense.base.matrix)


def test_evolve_agrees_to_the_last_bit(pairs):
    # BLAS and the CSR loop sum a vector-matrix product in different
    # orders, so single entries may differ by one rounding
    for dense, sparse in pairs:
        mu0 = w.Distribution.point_mass(dense.space, 0)
        for n in (1, 5, 17):
            a = w.evolve(mu0, dense, n).weights
            b = w.evolve(mu0, sparse, n).weights
            assert np.max(np.abs(a - b)) <= 1e-15


def test_transport_and_shift_are_identical(pairs):
    for dense, sparse in pairs:
        for i in (1, 2, 5):
            got = w.transport_kernel(sparse.base, sparse.map, i)
            assert got.is_sparse
            assert np.array_equal(
                got.dense(), w.transport_kernel(dense.base, dense.map, i).matrix
            )
        shifted = w.shift_kernel(sparse.base, sparse.map)
        assert shifted.is_sparse
        assert np.array_equal(shifted.dense(), dense.shifted.matrix)


def test_irreducibility_and_period_are_identical(pairs):
    for dense, sparse in pairs:
        irreducible = w.is_irreducible(dense.shifted)
        assert w.is_irreducible(sparse.shifted) == irreducible
        if irreducible:
            assert w.period(sparse.shifted) == w.period(dense.shifted)


def test_stationary_distribution_agrees(pairs):
    compared = 0
    for dense, sparse in pairs:
        pi = dense.wave_measure_or_none()
        if pi is None:
            assert sparse.wave_measure_or_none() is None
            continue
        got = w.stationary_distribution(sparse.shifted).weights
        assert np.max(np.abs(got - pi.weights)) <= 1e-12
        compared += 1
    assert compared > 150


def test_kernel_document_is_identical(pairs):
    for dense, sparse in pairs:
        assert w.kernel_document(sparse.shifted) == w.kernel_document(dense.shifted)


def test_row_tables_are_identical(pairs):
    for dense, sparse in pairs:
        a, b = _RowTable(dense.shifted), _RowTable(sparse.shifted)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.cums, b.cums)


def test_sampling_is_identical(pairs):
    for seed, (dense, sparse) in enumerate(pairs[:40]):
        assert w.sample_path(dense, 0, 30, seed) == w.sample_path(sparse, 0, 30, seed)
        assert np.array_equal(
            w.empirical_distribution(dense, 1, 12, 500, seed).weights,
            w.empirical_distribution(sparse, 1, 12, 500, seed).weights,
        )


def test_every_input_form_gets_the_same_storage(corpus):
    m = np.asarray(corpus[0].base.matrix)
    space = corpus[0].space
    forms = [m.tolist(), m, sp.coo_matrix(m), sp.csr_matrix(m), sp.coo_array(m), sp.csr_array(m)]
    for limit, sparse in ((space.size, False), (space.size - 1, True)):
        for entries in forms:
            k = w.make_kernel(space, entries, dense_limit=limit)
            assert k.is_sparse is sparse
            if sparse:
                assert isinstance(k.matrix, sp.csr_array)
            else:
                assert not k.matrix.flags.writeable
            assert np.array_equal(k.dense(), m)


def test_analyses_share_one_stationary_solve(tmp_path, monkeypatch):
    calls = []
    solve = spectral.stationary_distribution

    def counted(kernel):
        calls.append(kernel.size)
        return solve(kernel)

    monkeypatch.setattr(spectral, "stationary_distribution", counted)
    config = cli.ExperimentConfig(
        model="circle",
        model_params={"n": 9},
        analyses=("spectral", "stability", "bounds"),
        output=str(tmp_path),
    )
    code, report = cli.run(config)
    assert code == 0
    assert set(report["results"]) == {"spectral", "stability", "bounds"}
    assert calls == [9]


def test_make_kernel_leaves_the_callers_ndarray_writable():
    m = np.full((2, 2), 0.5)
    k = w.make_kernel(w.StateSpace(2), m)
    m[0, 0] = 1.0
    assert k.matrix[0, 0] == 0.5
    assert not k.matrix.flags.writeable


def test_make_kernel_does_not_share_the_callers_csr_data():
    c = sp.csr_array(np.full((3, 3), 1.0 / 3.0))
    k = w.make_kernel(w.StateSpace(3), c, dense_limit=2)
    c.data[0] = 5.0
    assert k.matrix[0, 0] == 1.0 / 3.0


def test_distribution_leaves_the_callers_weights_writable():
    weights = np.array([0.25, 0.75])
    mu = w.Distribution(w.StateSpace(2), weights)
    weights[0] = 0.5
    assert mu.weights[0] == 0.25
    assert not mu.weights.flags.writeable


def test_permutation_leaves_the_callers_forward_map_writable():
    forward = np.array([1, 2, 0], dtype=np.int64)
    g = w.make_permutation(w.StateSpace(3), forward)
    forward[0] = 0
    assert g.forward.tolist() == [1, 2, 0]
    assert not g.forward.flags.writeable
