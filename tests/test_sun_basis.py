import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from blochvar import (
    HermitianMatrix,
    basis_for,
    build_basis,
    max_algebra_residual,
    structure_d,
    structure_f,
    verify_algebra,
)
from blochvar.sun_basis import GeneratorBasis

PAULIS = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def f_oracle(gens, j, k, l):
    """Direct trace formula Tr([g_j, g_k] g_l) / (4i) on the matrices."""
    a, b, c = gens[j - 1].array, gens[k - 1].array, gens[l - 1].array
    return float((np.trace((a @ b - b @ a) @ c) / 4j).real)


def d_oracle(gens, j, k, l):
    a, b, c = gens[j - 1].array, gens[k - 1].array, gens[l - 1].array
    return float((np.trace((a @ b + b @ a) @ c) / 4).real)


def dense_reference(stack):
    """The dense build: f, d and the ordered d expansion from the full
    (N²-1)³ tensor Tr[g_j g_k g_l], filtered in a triple loop."""
    ngen = stack.shape[0]
    prod = np.einsum("jab,kbc->jkac", stack, stack)
    t = np.einsum("jkab,lba->jkl", prod, stack)
    f_dense = ((t - t.transpose(1, 0, 2)) / 4.0j).real
    d_dense = ((t + t.transpose(1, 0, 2)) / 4.0).real
    f_tensor, d_tensor = {}, {}
    for j in range(ngen):
        for k in range(j, ngen):
            for l in range(k, ngen):
                if abs(d_dense[j, k, l]) >= 1e-12:
                    d_tensor[(j + 1, k + 1, l + 1)] = float(d_dense[j, k, l])
                if j < k < l and abs(f_dense[j, k, l]) >= 1e-12:
                    f_tensor[(j + 1, k + 1, l + 1)] = float(f_dense[j, k, l])
    expanded = [(p, v) for key, v in d_tensor.items() for p in set(permutations(key))]
    d_ordered = (
        np.array([p[0] - 1 for p, _ in expanded], dtype=np.intp),
        np.array([p[1] - 1 for p, _ in expanded], dtype=np.intp),
        np.array([p[2] - 1 for p, _ in expanded], dtype=np.intp),
        np.array([v for _, v in expanded], dtype=np.float64),
    )
    return f_tensor, d_tensor, d_ordered


def dense_residual(basis):
    """The dense closure check: the full (N²-1)³ f and d tensors expanded
    from the stored maps, then the worst entry of
    g_j g_k - (2/N) δ_jk I - Σ_l (d_jkl + i f_jkl) g_l."""
    ngen = basis.n_generators
    f = np.zeros((ngen, ngen, ngen))
    d = np.zeros((ngen, ngen, ngen))
    for (a, b, c), v in basis.f_tensor.items():
        for (x, y, z), sign in (
            ((a, b, c), 1.0), ((b, c, a), 1.0), ((c, a, b), 1.0),
            ((b, a, c), -1.0), ((a, c, b), -1.0), ((c, b, a), -1.0),
        ):
            f[x - 1, y - 1, z - 1] = sign * v
    for key, v in basis.d_tensor.items():
        for x, y, z in permutations(key):
            d[x - 1, y - 1, z - 1] = v
    stack = basis.stacked()
    recon = np.einsum("jkl,lab->jkab", d + 1.0j * f, stack)
    recon[np.arange(ngen), np.arange(ngen)] += (2.0 / basis.dim) * np.eye(basis.dim)
    prod = np.einsum("jab,kbc->jkac", stack, stack)
    return float(np.abs(prod - recon).max())


@pytest.mark.parametrize("n", range(2, 11))
def test_sparse_build_is_bit_identical_to_dense(n):
    basis = build_basis(n)
    f_ref, d_ref, ordered_ref = dense_reference(basis.stacked())
    for got, ref in ((basis.f_tensor, f_ref), (basis.d_tensor, d_ref)):
        assert list(got) == list(ref)
        assert [v.hex() for v in got.values()] == [v.hex() for v in ref.values()]
    for got, ref in zip(basis._d_ordered, ordered_ref, strict=True):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [12, 16])
def test_large_dims_match_trace_oracle(n):
    basis = basis_for(n)
    gens = basis.generators
    rng = np.random.default_rng(n)
    stored = list(basis.d_tensor) + list(basis.f_tensor)
    triples = [tuple(rng.integers(1, basis.n_generators + 1, size=3)) for _ in range(100)]
    triples += [tuple(rng.permutation(stored[i])) for i in rng.integers(len(stored), size=100)]
    for j, k, l in triples:
        assert structure_f(basis, j, k, l) == pytest.approx(f_oracle(gens, j, k, l), abs=1e-12)
        assert structure_d(basis, j, k, l) == pytest.approx(d_oracle(gens, j, k, l), abs=1e-12)


def test_qubit_basis_is_the_pauli_triple(basis2):
    assert len(basis2.generators) == 3
    for got, expected in zip(basis2.generators, PAULIS):
        assert np.allclose(got.array, expected, atol=1e-15)


def test_qubit_d_tensor_empty(basis2):
    assert dict(basis2.d_tensor) == {}
    for j in range(1, 4):
        for k in range(1, 4):
            for l in range(1, 4):
                assert structure_d(basis2, j, k, l) == 0.0


def test_qubit_f123(basis2):
    assert structure_f(basis2, 1, 2, 3) == pytest.approx(1.0, abs=1e-14)
    assert structure_f(basis2, 1, 2, 3) == pytest.approx(
        f_oracle(basis2.generators, 1, 2, 3), abs=1e-14
    )


def test_qutrit_generators_orthonormal(basis3):
    gens = basis3.generators
    assert len(gens) == 8
    for j in range(8):
        assert abs(np.trace(gens[j].array)) < 1e-13
        for k in range(8):
            got = np.trace(gens[j].array @ gens[k].array)
            expected = 2.0 if j == k else 0.0
            assert abs(got - expected) < 1e-12


def test_qutrit_spot_constants(basis3):
    # Frozen from the trace-formula oracle on the constructed generators.
    assert structure_f(basis3, 1, 2, 3) == pytest.approx(1.0, abs=1e-12)
    assert structure_d(basis3, 1, 1, 8) == pytest.approx(0.5773502691896258, abs=1e-12)
    assert structure_d(basis3, 1, 1, 8) == pytest.approx(
        d_oracle(basis3.generators, 1, 1, 8), abs=1e-13
    )


def test_structure_constants_match_trace_oracle(basis3):
    gens = basis3.generators
    for j in range(1, 9):
        for k in range(1, 9):
            for l in range(1, 9):
                assert structure_f(basis3, j, k, l) == pytest.approx(
                    f_oracle(gens, j, k, l), abs=1e-12
                )
                assert structure_d(basis3, j, k, l) == pytest.approx(
                    d_oracle(gens, j, k, l), abs=1e-12
                )


def test_f_antisymmetry_and_d_symmetry_as_stored(basis4):
    n = basis4.n_generators
    rng = np.random.default_rng(7)
    for _ in range(200):
        j, k, l = rng.integers(1, n + 1, size=3)
        f = structure_f(basis4, j, k, l)
        assert structure_f(basis4, k, j, l) == -f
        assert structure_f(basis4, j, l, k) == -f
        d = structure_d(basis4, j, k, l)
        assert structure_d(basis4, k, j, l) == d
        assert structure_d(basis4, j, l, k) == d


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_algebra_closure(n):
    basis = basis_for(n)
    assert verify_algebra(basis)
    total = sum(abs(np.trace(g.array)) for g in basis.generators)
    assert total < 1e-12


def test_corrupted_basis_detected(basis3):
    bad_gens = list(basis3.generators)
    bad_gens[0] = HermitianMatrix(1.01 * bad_gens[0].array)
    corrupted = GeneratorBasis(
        basis3.dim,
        tuple(bad_gens),
        dict(basis3.f_tensor),
        dict(basis3.d_tensor),
        np.stack([g.array for g in bad_gens]),
        basis3._d_ordered,
    )
    assert not verify_algebra(corrupted)
    assert max_algebra_residual(corrupted) > 1e-3


@pytest.mark.parametrize("corrupt", [False, True], ids=["exact", "corrupted"])
@pytest.mark.parametrize("n", range(2, 9))
def test_sparse_residual_matches_dense_check(n, corrupt):
    basis = basis_for(n)
    if corrupt:
        # Scale one generator and shift one f entry, so that both sides of
        # the check carry an O(1e-2) error, not just round-off.
        gens = list(basis.generators)
        gens[n - 1] = HermitianMatrix(1.01 * gens[n - 1].array)
        f_tensor = dict(basis.f_tensor)
        f_tensor[(1, 2, 3)] += 0.003
        basis = GeneratorBasis(
            n, tuple(gens), f_tensor, dict(basis.d_tensor),
            np.stack([g.array for g in gens]), basis._d_ordered,
        )
    residual = max_algebra_residual(basis)
    assert abs(residual - dense_residual(basis)) <= 1e-15
    assert (residual > 1e-3) == corrupt


def test_sparse_residual_memory_at_dim_cap():
    basis = basis_for(16)
    tracemalloc.start()
    try:
        residual = max_algebra_residual(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual < 1e-11
    # The dense check needs over 1 GB here: its (255, 255, 16, 16) complex
    # products and (255, 255, 255) tensors are about 265 MB each.
    assert peak < 64e6


def test_build_basis_rejects_small_dims():
    with pytest.raises(ValueError):
        build_basis(1)


def test_index_range_errors(basis2):
    with pytest.raises(IndexError):
        structure_f(basis2, 0, 1, 2)
    with pytest.raises(IndexError):
        structure_d(basis2, 1, 2, 4)


def test_d_contract_matches_brute_force(basis3):
    rng = np.random.default_rng(11)
    a = rng.normal(size=8)
    brute = np.zeros(8)
    for l in range(1, 9):
        for j in range(1, 9):
            for k in range(1, 9):
                brute[l - 1] += a[j - 1] * a[k - 1] * structure_d(basis3, j, k, l)
    assert np.abs(basis3.d_contract(a) - brute).max() < 1e-12
