"""One storage: every kernel is its read-only CSR triple, at every size.

The dense view `dense()` and the numpy CSR products read the triple.  Each
operation below is checked against a dense reference computed here from
that view: relabeling by fancy indexing, a kernel document listing the
nonzero entries, a padded row table built row by row and inverse-transform
sampling on the cumulative rows.  The two algorithm paths that
DENSE_LIMIT chooses between are checked against each other, and that
choice is made by `core._densifiable` alone.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import wavechain as w
import wavechain.core as core
import wavechain.spectral as spectral
from wavechain import cli, errors, models
from wavechain.rng import uniforms
from wavechain.sim import _RowTable


def test_transport_and_shift_are_identical(corpus):
    for s in corpus:
        m = s.base.dense()
        for i in (1, 2, 5):
            gp = s.map.power_map(i - 1)
            got = w.transport_kernel(s.base, s.map, i).dense()
            assert got.tobytes() == m[np.ix_(gp, gp)].tobytes()
        assert w.shift_kernel(s.base, s.map).dense().tobytes() == m[:, s.map.inverse].tobytes()


def test_evolve_agrees_to_the_last_bit(corpus, dense_limit, dense_calls):
    # the products run on the CSR triple at every size, so DENSE_LIMIT does
    # not move a bit, and no dense view is built
    starts = [w.Distribution.point_mass(s.space, 0) for s in corpus]
    want = [[w.evolve(mu0, s, n).weights for n in (1, 5, 17)] for s, mu0 in zip(corpus, starts)]
    with dense_limit(0):
        for s, mu0, laws in zip(corpus, starts, want):
            for n, law in zip((1, 5, 17), laws):
                assert w.evolve(mu0, s, n).weights.tobytes() == law.tobytes()
    assert not dense_calls


def test_evolve_builds_no_dense_view_at_the_limit(dense_calls):
    # 4095 states, the largest circle within DENSE_LIMIT: pushing a law
    # takes two entries a row, never the 134 MB view
    base, _ = w.circle_kernel(4095, 1.0)
    s = w.make_wave_system(base, w.circle_shift(4095, -1))
    assert s.space.size <= w.DENSE_LIMIT
    law = w.evolve(w.Distribution.point_mass(s.space, 0), s, 50)
    assert np.count_nonzero(law.weights) == 51  # a step moves one state left or right
    assert not dense_calls


def test_core_alone_moves_every_size_choice(monkeypatch, tmp_path, capsys):
    # core's limit, and no other binding, moves the SVD path, the merging
    # refusal, which is the dense view's, and wave-profile's TV line; the
    # wave measure is solved before.  simulate's TV line comes at every size
    system = models.build_model("circle", {"n": 5})
    pi = system.wave_measure
    monkeypatch.setattr(core, "DENSE_LIMIT", 0)
    assert len(spectral._singular_values(system.shifted, pi, pi)) == 2
    with pytest.raises(errors.TooLarge, match="^refusing to densify a 5-state kernel$"):
        w.merging_time(system, 0.01, 10)
    circle5 = ["--model", "circle", "--param", "n=5", "--out", str(tmp_path)]
    assert cli.main(["simulate", *circle5, "--param", "trials=500"]) == 0
    assert capsys.readouterr().out.startswith("simulate: endpoint TV vs exact ")
    assert cli.main(["wave-profile", *circle5, "--param", "samples=500"]) == 0
    assert capsys.readouterr().out == "wave-profile: 500 samples, burn-in 1000, stride 5\n"


def test_stationary_distribution_agrees(corpus, dense_limit):
    # the direct solve against the refinement from the uniform start that
    # runs above DENSE_LIMIT
    compared = 0
    for s in corpus:
        pi = s.wave_measure_or_none()
        if pi is None:
            continue
        with dense_limit(0):
            got = w.stationary_distribution(s.shifted).weights
        assert np.max(np.abs(got @ s.shifted.dense() - got)) <= 1e-12
        assert np.max(np.abs(got - pi.weights)) <= 1e-11
        compared += 1
    assert compared > 150


def test_kernel_document_is_identical(corpus):
    # the document lists the nonzero entries of the dense view, row by row
    for s in corpus:
        m = s.shifted.dense()
        rows, cols = np.nonzero(m)
        want = [[int(r), int(c), float(m[r, c])] for r, c in zip(rows, cols)]
        doc = w.kernel_document(s.shifted)
        assert doc == {"size": s.space.size, "triplets": want}
        assert w.kernel_from_document(doc).dense().tobytes() == m.tobytes()


def reference_row_table(kernel):
    """(width, indices, cums) of the sampling table, built row by row from
    the stored entries: each row padded to a power-of-two width with its
    last support point and a cumulative of 2.0."""
    indptr, support, data = kernel.entries
    counts = np.diff(indptr)
    width = 1 << (int(counts.max()) - 1).bit_length()
    indices = np.empty((kernel.size, width), dtype=np.int64)
    cums = np.full((kernel.size, width), 2.0)
    for r in range(kernel.size):
        lo, hi = indptr[r], indptr[r + 1]
        indices[r] = support[hi - 1]
        indices[r, : hi - lo] = support[lo:hi]
        cums[r, : hi - lo] = np.cumsum(data[lo:hi])
    return width, indices.ravel(), cums.ravel()


def test_row_tables_are_identical(corpus):
    kernels = [s.shifted for s in corpus]
    kernels += [w.sticky_permutation_system(4, 0, 0.1).shifted, w.deck_reversal_system(5).shifted]
    for kernel in kernels:
        table = _RowTable(kernel)
        width, indices, cums = reference_row_table(kernel)
        assert table.width == width
        assert (table.indices.dtype, table.indices.tobytes()) == (indices.dtype, indices.tobytes())
        assert (table.cums.dtype, table.cums.tobytes()) == (cums.dtype, cums.tobytes())


def dense_row_path(system, start, n, seed):
    """`sample_path` by inverse transform on the cumulative dense rows of
    the shifted kernel: the first column whose cumulative exceeds the draw."""
    cums = np.cumsum(system.shifted.dense(), axis=1)
    back = np.arange(system.space.size)
    z, steps = start, [start]
    for i in range(n):
        z = int(np.argmax(cums[z] > uniforms(seed, 0, i)[0]))
        back = back[system.map.inverse]
        steps.append(int(back[z]))
    return tuple(steps)


def test_sampling_is_identical(corpus):
    for seed, s in enumerate(corpus[:40]):
        assert w.sample_path(s, 0, 30, seed).steps == dense_row_path(s, 0, 30, seed)


def stored(kernel) -> tuple:
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in kernel.entries)


def test_every_input_form_gets_the_same_storage(corpus):
    for s in corpus[:2]:
        m = np.asarray(s.base.dense())
        space = s.space
        forms = [m.tolist(), m, sp.coo_matrix(m), sp.csr_matrix(m), sp.coo_array(m),
                 sp.csr_array(m)]
        # COO with int64 indices, and COO with a zero triplet in each row, at
        # a zero of the row where it has one (corpus[1] has one in every row)
        rows, cols = np.nonzero(m)
        forms.append(sp.coo_array(
            (m[rows, cols], (rows.astype(np.int64), cols.astype(np.int64))), shape=m.shape))
        at = np.argmin(m, axis=1)
        assert s is corpus[0] or np.all(m[np.arange(space.size), at] == 0.0)
        forms.append(sp.coo_array(
            (np.concatenate([m[rows, cols], np.zeros(space.size)]),
             (np.concatenate([rows, np.arange(space.size)]), np.concatenate([cols, at]))),
            shape=m.shape))
        kernels = [w.make_kernel(space, f) for f in forms]
        kernels.append(w.kernel_from_document(w.kernel_document(kernels[1])))
        assert {stored(k) for k in kernels} == {stored(kernels[1])}
        for k in kernels:
            assert not k.dense().flags.writeable
            assert np.array_equal(k.dense(), m)


def test_every_kernel_stores_its_positive_entries_with_intp_indices(corpus):
    systems = [models.build_model(name, {}) for name in models.MODELS] + list(corpus)
    for s in systems:
        for kernel in (s.base, s.shifted):
            indptr, indices, data = kernel.entries
            assert indptr.dtype == indices.dtype == np.intp
            assert np.all(data > 0.0)
            # columns strictly ascending inside each row
            rows = np.repeat(np.arange(kernel.size), np.diff(indptr))
            same_row = rows[1:] == rows[:-1]
            assert np.all(indices[1:][same_row] > indices[:-1][same_row])


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
    assert k.dense()[0, 0] == 0.5
    assert not k.dense().flags.writeable


def test_make_kernel_does_not_share_the_callers_csr_data():
    c = sp.csr_array(np.full((3, 3), 1.0 / 3.0))
    k = w.make_kernel(w.StateSpace(3), c)
    c.data[0] = 5.0
    assert k.dense()[0, 0] == 1.0 / 3.0
    assert not np.shares_memory(k.entries[2], c.data)


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
