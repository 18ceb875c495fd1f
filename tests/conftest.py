import numpy as np
import pytest

from blochvar import basis_for, bloch, engine, sampling


@pytest.fixture(scope="session")
def basis2():
    return basis_for(2)


@pytest.fixture(scope="session")
def basis3():
    return basis_for(3)


@pytest.fixture(scope="session")
def basis4():
    return basis_for(4)


@pytest.fixture(scope="session")
def np_rng():
    return np.random.default_rng(20240911)


def random_hermitian(rng, n):
    """Test-local Hermitian draw (independent of the package RNG)."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def failure_ids(cases):
    """Test ids for (module, constant, value, case...) tuples: the patched
    constant, its value and the case, not the module, so that moving a
    constant renames no test."""
    return ["-".join(str(field) for field in case[1:]) for case in cases]


def built(plan, drawn, basis):
    """The draws ``drawn`` of ``plan`` with each direction built into its
    observable, as the engine builds them: rows on lanes as
    ``engine.chunks`` does (``engine._build``), one sample's as
    ``engine._sample`` does."""
    drawn = list(drawn)
    if any(isinstance(d, sampling.Directions) for d in drawn):
        engine._build(plan, drawn, basis)
        return drawn
    return [bloch.observable_from_bloch(d, basis) if kind == sampling.DIRECTION else d
            for kind, d in zip(plan, drawn)]
