"""Shared fixtures: the randomized corpus, a few small reference systems and
one switch for DENSE_LIMIT."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

import wavechain as w
import wavechain.core as core

# Every @given test draws the same examples on every run: tier-1 stays
# deterministic.  Explicit @settings (example counts, deadlines) still apply.
settings.register_profile("wavechain", derandomize=True, database=None)
settings.load_profile("wavechain")

CORPUS_SEED = 20260816
CORPUS_COUNT = 200


def random_system(rng):
    size = int(rng.integers(3, 10))
    m = rng.random((size, size))
    m *= rng.random((size, size)) < 0.6
    # a guaranteed cycle keeps the base kernel irreducible
    m[np.arange(size), (np.arange(size) + 1) % size] += 0.25
    m /= m.sum(axis=1, keepdims=True)
    g = [int(v) for v in rng.permutation(size)]
    space = w.StateSpace(size)
    return w.make_wave_system(
        w.make_kernel(space, m), w.make_permutation(space, g)
    )


@pytest.fixture(scope="session")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_system(rng) for _ in range(CORPUS_COUNT)]


@pytest.fixture(scope="session")
def merging_corpus(corpus):
    """Corpus members whose shifted kernel is irreducible and aperiodic."""
    kept = [
        s
        for s in corpus
        if w.is_irreducible(s.shifted) and w.period(s.shifted) == 1
    ]
    assert len(kept) == 184  # frozen at the corpus seed
    return kept


@pytest.fixture(scope="session")
def circle5():
    base, _ = w.circle_kernel(5, 1.0)
    return w.make_wave_system(base, w.circle_shift(5, -1))


@pytest.fixture(scope="session")
def sticky4():
    return w.sticky_permutation_system(4, (0, 1, 2, 3), 0.1)


@pytest.fixture
def dense_limit():
    """`with dense_limit(n):` sets `core.DENSE_LIMIT` to n, and restores it
    on exit.  `core._densifiable` alone reads it, so every size choice of
    the package moves together.  The package's re-exported `w.DENSE_LIMIT`,
    which tests read, follows."""

    @contextmanager
    def limit(n):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "DENSE_LIMIT", n)
            patch.setattr(w, "DENSE_LIMIT", n)
            yield

    return limit


@pytest.fixture
def dense_calls(monkeypatch):
    """One item per `MarkovKernel.dense` call while the test runs, in call
    order: the array it returned, or None where it refused the kernel.
    `assert not dense_calls` checks that no dense view was asked for."""
    calls = []
    real = core.MarkovKernel.dense

    def recorded(kernel):
        calls.append(None)  # stays None if the call raises
        calls[-1] = real(kernel)
        return calls[-1]

    monkeypatch.setattr(core.MarkovKernel, "dense", recorded)
    return calls
