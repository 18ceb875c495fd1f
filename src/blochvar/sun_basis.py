"""Generalized Gell-Mann generators of su(N) and their structure tensors.

Conventions
-----------
The N²-1 generators are traceless Hermitian matrices normalized so that
Tr[g_j g_k] = 2 δ_jk.  They are emitted in the ordering that reduces to
the Pauli triple at N = 2 and the standard Gell-Mann ordering at N = 3:
for each subspace size m = 2..N, first the off-diagonal pairs (u, m) for
u < m (symmetric matrix E_um + E_mu, then antisymmetric -i E_um + i E_mu),
then the diagonal generator

    sqrt(2 / (m (m-1))) * diag(1, ..., 1, -(m-1), 0, ..., 0)

with m-1 leading ones.

The antisymmetric tensor f and symmetric tensor d are defined through

    [g_j, g_k] = 2i Σ_l f_jkl g_l
    {g_j, g_k} = (4/N) δ_jk I + 2 Σ_l d_jkl g_l

equivalently f_jkl = Tr([g_j, g_k] g_l) / (4i) and
d_jkl = Tr({g_j, g_k} g_l) / 4.  Both tensors are stored sparsely, keyed
on ascending 1-based index triples: f on its strictly increasing triples
(a permutation carries the parity sign), d on its non-decreasing triples
(all permutations equal).  Entries below 1e-12 in magnitude are dropped.

Construction
------------
No dense (N²-1)³ array is built.  Every generator has at most one nonzero
per row, so T[j, k, l] = Tr[g_j g_k g_l] = Σ_a (g_j g_k)[a, c] g_l[c, a]
has at most N terms, one per row a: a closed path a -> b -> c -> a
through one nonzero of each generator.  The paths are found by joining
the generators' nonzero entries on their row and (row, column) keys, so
the work grows with the number of paths, not with (N²-1)³.  Each term is
(g_j[a, b] g_k[b, c]) g_l[c, a], and each T[j, k, l] sums its terms in
ascending row a, starting from zero, one elementwise complex addition at
a time.  That is the order of the dense einsum product, so f, d and the
key order are bit-identical to it; tests/test_sun_basis.py keeps the
dense build as the oracle.  A BLAS matmul route is avoided on purpose:
it changes the summation order and moves d by 1 ulp for N >= 5.  f and d
follow elementwise as (T[j,k,l] ∓ T[k,j,l]) / (4i or 4), and the
"not real" residual is taken over every (j, k, l) where T has a term;
everywhere else both tensors are exactly zero.

The closure check in ``max_algebra_residual`` is sparse too: it joins the
same nonzero entries for the products g_j g_k, and the stored f and d
maps, expanded over orderings, for the side rebuilt from them.

The stacked contractions (``d_contract`` on rows, ``trace_rows`` and
``combine_rows``) share one kernel, ``_run_sums``: each adds only
nonzero terms (234 of the 9,900 entries of the N = 10 generator stack
are nonzero), from a table built once per basis by ``_term_table``,
each component's in the order of the call it stands for, so it is
bit-identical to that call.  At N = 2, where every generator entry
counts, ``trace_rows`` is the dense einsum and ``combine_rows`` adds the
einsum's three terms itself, in its order.
"""

from __future__ import annotations

import operator
from itertools import permutations
from types import MappingProxyType

import numpy as np

from .errors import NumericsError
from .linalg import HermitianMatrix

__all__ = [
    "GeneratorBasis",
    "build_basis",
    "basis_for",
    "structure_f",
    "structure_d",
    "verify_algebra",
    "max_algebra_residual",
]

_SPARSE_CUTOFF = 1e-12

# Even permutations of three positions; everything else is odd.
_EVEN_ORDERS = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


class GeneratorBasis:
    """Immutable basis of su(N) generators plus its f and d tensors.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension N.
    generators : tuple of HermitianMatrix
        The N²-1 generators in canonical order (1-based indexing in the
        tensor maps corresponds to position in this tuple).
    f_tensor, d_tensor : mapping
        Sparse structure-constant maps as described in the module
        docstring.
    """

    __slots__ = (
        "dim", "generators", "f_tensor", "d_tensor",
        "_stack", "_d_ordered", "_d_runs", "_trace_runs", "_combine_runs",
    )

    def __init__(self, dim, generators, f_tensor, d_tensor, stack, d_ordered):
        self.dim = dim
        self.generators = generators
        self.f_tensor = MappingProxyType(f_tensor)
        self.d_tensor = MappingProxyType(d_tensor)
        self._stack = stack
        self._d_ordered = d_ordered
        # The terms of each contraction in the order of the call it stands
        # for: d's in the 1-D call's (np.add.at adds in index order), the
        # generators' nonzeros g_j[b, a] in ascending row a of m[a, b] for
        # the trace and in ascending j for the combination, as the dense
        # einsums meet them.
        jj, kk, ll, vv = d_ordered
        ngen = dim * dim - 1
        self._d_runs = _term_table(ll, ngen, vv, jj, kk)
        j, b, a = np.nonzero(stack)
        by_j = np.lexsort((a, j))
        self._trace_runs = _term_table(j[by_j], ngen, stack[j, b, a][by_j], (a * dim + b)[by_j])
        flat = stack.reshape(ngen, dim * dim)
        j, ab = np.nonzero(flat)
        by_ab = np.lexsort((j, ab))
        self._combine_runs = _term_table(ab[by_ab], dim * dim, flat[j, ab][by_ab], j[by_ab])

    @property
    def n_generators(self) -> int:
        return self.dim * self.dim - 1

    def stacked(self) -> np.ndarray:
        """Generators as a read-only (N²-1, N, N) complex array."""
        return self._stack

    def d_contract(self, a: np.ndarray) -> np.ndarray:
        """Contract the symmetric tensor with a ⊗ a.

        Returns the vector with components Σ_jk a_j a_k d_jkl, which is
        the coefficient vector of the traceless part of the squared
        operator Σ_j a_j g_j.  Given an (n, N²-1) stack, returns the
        contraction of each row, bit-identical to the 1-D call on it.
        """
        a = np.asarray(a, dtype=np.float64)
        n = self.n_generators
        if a.ndim not in (1, 2) or a.shape[-1] != n:
            raise ValueError(f"expected vectors of length {n}")
        if self.dim == 2:  # d is zero
            return np.zeros(a.shape)
        if a.ndim == 1:
            jj, kk, ll, vv = self._d_ordered
            out = np.zeros(n)
            np.add.at(out, ll, a[jj] * a[kk] * vv)
            return out
        return _run_sums(a, self._d_runs, lambda rows: np.reshape([self.d_contract(r) for r in a[rows]], (-1, n)))

    def trace_rows(self, m: np.ndarray) -> np.ndarray:
        """Tr[m[i] g_j] for each row of an (n, N, N) stack: the (n, N²-1)
        array ``einsum("nab,jba->nj", m, stacked())``, bit for bit."""

        def dense(rows):
            return np.einsum("nab,jba->nj", m[rows], self._stack)

        if self.dim == 2:  # see _run_sums
            return dense(slice(None))
        return _run_sums(m.reshape(-1, self.dim * self.dim), self._trace_runs, dense)

    def combine_rows(self, p: np.ndarray) -> np.ndarray:
        """Σ_j p[i, j] g_j for each row of real coefficients: the (n, N, N)
        array ``einsum("nj,jab->nab", p, stacked())``, bit for bit."""

        def dense(rows):
            return np.einsum("nj,jab->nab", p[rows], self._stack)

        if self.dim == 2:
            # The einsum's terms, p[:, j] (cast to complex) times g_j, added
            # to zeros in its order: the same complex products and sums,
            # without its per-call cost, the larger one at few rows.
            out = np.zeros((len(p), 2, 2), dtype=np.complex128)
            for j, g in enumerate(self._stack):
                out += p[:, j, None, None] * g
            return out
        out = _run_sums(p, self._combine_runs, lambda rows: dense(rows).reshape(-1, self.dim**2))
        return out.reshape(-1, self.dim, self.dim)

    def __repr__(self) -> str:
        return f"GeneratorBasis(dim={self.dim})"


# The one kernel's temporaries: a block holds _BLOCK_ROWS rows, and runs
# are grouped once, when the basis is built, so that a group's terms hold
# at most _BLOCK_BYTES at that many rows, unless one run needs more.  At
# N = 6 and 10, 128 rows and 512 KB ran d_contract on the 16 to 95 rows
# of the bench's jobs as fast as groups sized to 64 KB at the call's
# rows, or up to 2.5x as fast, and every kernel on 2,048 rows at N = 10
# and 16 as fast or faster; one block of 2,048 rows took 1.5-3.5x as long
# there (2 vCPU Xeon).
_BLOCK_BYTES = 1 << 19
_BLOCK_ROWS = 128


def _term_table(dst: np.ndarray, width: int, val: np.ndarray, *src: np.ndarray) -> tuple:
    """The table ``_run_sums`` reads for the sums Σ x[src[0]] * ... * val
    into components ``dst`` of a ``width``-vector, each component's terms
    listed in its summation order.  The components are permuted by
    decreasing term count, and run r holds the r-th term of each component
    that has one: it names each component once, and they are a prefix of
    the permuted ones.  Consecutive runs form groups (see _BLOCK_BYTES),
    each padded to its first run's width with terms that read column 0
    times 0.  Returns (place: component c is at ``place[c]`` of the
    permuted order; for each group, its src and val), the indices in the
    smallest integer type that holds them."""
    counts = np.bincount(dst, minlength=width)
    place = np.empty(width, dtype=np.intp)
    place[np.argsort(-counts, kind="stable")] = np.arange(width)
    by_dst = np.argsort(dst, kind="stable")
    rank = np.empty(dst.size, dtype=np.intp)
    rank[by_dst] = np.arange(dst.size) - np.repeat(np.cumsum(counts) - counts, counts)
    sizes = np.bincount(rank)
    dtype = np.min_scalar_type(max(s.max(initial=0) for s in src))
    # Each group is filled on its own: building and freeing one padded
    # table of every run (0.5 MB for d at N = 16) raised glibc's mmap
    # threshold, and with it the max RSS of verify appendix-c --dim 16 by
    # 8 MB.
    groups = []
    r = 0
    while r < sizes.size:
        size = sizes[r]
        stop = min(sizes.size, r + max(1, _BLOCK_BYTES // (val.itemsize * size * _BLOCK_ROWS)))
        t = (rank >= r) & (rank < stop)
        index = np.zeros((len(src), stop - r, size), dtype=dtype)
        values = np.zeros(index.shape[1:] + (1,), dtype=val.dtype)
        index[:, rank[t] - r, place[dst[t]]] = [s[t] for s in src]
        values[rank[t] - r, place[dst[t]], 0] = val[t]
        groups.append((index, values))
        r = stop
    return place, groups


def _run_sums(x: np.ndarray, table: tuple, dense) -> np.ndarray:
    """Each row's sums Σ x[src[0]] * ... * val by ``table``
    (``_term_table``), one addition at a time from +0, run by run: the
    nonzero terms of a dense einsum with a sparse operand, or of the 1-D
    ``d_contract``, in its order.  The einsum's zero terms and the padding
    (finite × 0, a signed zero) leave such a sum unchanged, as it is never
    -0, so rows whose sums are finite equal the call bit for bit.  The
    others, where a non-finite entry or an overflow meets a zero (inf × 0
    is NaN) or where which NaN survives depends on numpy's loop, are
    recomputed as ``dense(rows)``.

    A block of rows is transposed so that rows run along the contiguous
    axis.  A group of runs is one gather per source, in-place products and
    one ``np.add.reduce`` over its first axis, which adds in order.  (numpy
    adds a reduction over one-element rows pairwise instead; at one row
    that takes a group of several runs of width 1, and these tables have
    at most one such run, their last.)

    At N = 2 half the entries of the generators are nonzero, and one dense
    einsum call beats the several calls of the runs at the 75 to 150 rows
    of a qubit job (8 against 17 us for a trace, 2 vCPU Xeon), so
    ``trace_rows`` and ``combine_rows`` take it there."""
    place, groups = table
    out = np.empty((x.shape[0], place.size), dtype=np.result_type(x, *(v for _, v in groups)))
    for lo in range(0, x.shape[0], _BLOCK_ROWS):
        block = x[lo : lo + _BLOCK_ROWS]
        cols = np.ascontiguousarray(block.T, dtype=out.dtype)
        sums = np.zeros((place.size, block.shape[0]), dtype=out.dtype)
        for index, values in groups:
            size = values.shape[1]
            terms = cols[index[0]]
            for src in index[1:]:
                terms *= cols[src]
            terms *= values
            terms[0] += sums[:size]
            np.add.reduce(terms, axis=0, out=sums[:size])
        np.take(sums, place, axis=0, out=out[lo : lo + block.shape[0]].T, mode="clip")  # unbuffered
    if not np.isfinite(out.sum()):  # a sum of finite numbers may overflow too
        rows = ~np.isfinite(out).all(axis=1)
        out[rows] = dense(rows)
    return out


def _generator_arrays(n: int) -> list[np.ndarray]:
    mats: list[np.ndarray] = []
    for m in range(2, n + 1):
        for u in range(1, m):
            sym = np.zeros((n, n), dtype=np.complex128)
            sym[u - 1, m - 1] = 1.0
            sym[m - 1, u - 1] = 1.0
            mats.append(sym)
            asym = np.zeros((n, n), dtype=np.complex128)
            asym[u - 1, m - 1] = -1.0j
            asym[m - 1, u - 1] = 1.0j
            mats.append(asym)
        diag = np.zeros(n, dtype=np.complex128)
        diag[: m - 1] = 1.0
        diag[m - 1] = -(m - 1)
        mats.append(np.sqrt(2.0 / (m * (m - 1))) * np.diag(diag))
    return mats


def _join(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, e) with keys[e] == wanted[i]: i ascending, then e ascending."""
    order = np.argsort(keys, kind="stable")
    start = np.searchsorted(keys[order], wanted, side="left")
    count = np.searchsorted(keys[order], wanted, side="right") - start
    owner = np.repeat(np.arange(wanted.size), count)
    offset = np.arange(owner.size) - (np.cumsum(count) - count)[owner]
    return owner, order[start[owner] + offset]


def _sparse_tensors(gen, row, col, val, n: int) -> tuple[dict, dict]:
    """f and d maps from the generators' nonzero entries g[gen][row, col] = val,
    built as described in the module docstring."""
    ngen = n * n - 1
    # Every closed path a -> b -> c -> a through g_j[a, b], g_k[b, c] and
    # g_l[c, a] is one term of T[j, k, l] = Tr[g_j g_k g_l].
    e1, e2 = _join(row, col)
    path, e3 = _join(row * n + col, col[e2] * n + row[e1])
    e1, e2 = e1[path], e2[path]
    terms = val[e1] * val[e2] * val[e3]
    code = (gen[e1] * ngen + gen[e2]) * ngen + gen[e3]
    order = np.argsort(code * n + row[e1], kind="stable")
    code, terms = code[order], terms[order]

    # Sum each triple's terms from zero in ascending row a: np.add.at adds
    # in index order, and the terms are sorted by (triple, a).
    first = np.ones(code.size, dtype=bool)
    first[1:] = code[1:] != code[:-1]
    t_codes = code[first]
    t = np.zeros(t_codes.size, dtype=np.complex128)
    np.add.at(t, np.cumsum(first) - 1, terms)

    # The generators are Hermitian, so the reversed path c -> b -> a -> c
    # is one for T[k, j, l]: t_codes holds the partner (k, j, l) of each of
    # its triples, and every structurally nonzero f or d entry.
    j, k, l = t_codes // (ngen * ngen), t_codes // ngen % ngen, t_codes % ngen
    swapped = (k * ngen + j) * ngen + l
    partner = np.searchsorted(t_codes, swapped)
    assert np.array_equal(t_codes[partner], swapped)
    f_all = (t - t[partner]) / 4.0j
    d_all = (t + t[partner]) / 4.0
    worst_imag = max(np.abs(f_all.imag).max(), np.abs(d_all.imag).max())
    if worst_imag > 1e-12:
        raise NumericsError(f"structure constants not real: residual {worst_imag:.3e}")

    keys = np.stack([j + 1, k + 1, l + 1], axis=1)
    keep_d = (j <= k) & (k <= l) & (np.abs(d_all.real) >= _SPARSE_CUTOFF)
    keep_f = (j < k) & (k < l) & (np.abs(f_all.real) >= _SPARSE_CUTOFF)
    d_tensor = dict(zip(map(tuple, keys[keep_d].tolist()), d_all.real[keep_d].tolist()))
    f_tensor = dict(zip(map(tuple, keys[keep_f].tolist()), f_all.real[keep_f].tolist()))
    return f_tensor, d_tensor


def build_basis(n: int) -> GeneratorBasis:
    """Construct the canonical su(N) generator basis with its tensors.

    Raises ``ValueError`` for N < 2.  The returned object is immutable
    and safe to share; ``basis_for`` caches one instance per dimension.
    """
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"basis requires dimension >= 2, got {n}")
    mats = _generator_arrays(n)
    ngen = n * n - 1
    assert len(mats) == ngen
    stack = np.stack(mats)

    # Construction sanity: traceless and mutually orthogonal with norm 2.
    traces = np.abs(np.einsum("jaa->j", stack))
    if traces.max() > 1e-13:
        raise NumericsError(f"generator trace residual {traces.max():.3e}")
    gen, row, col = np.nonzero(stack)
    val = stack[gen, row, col]
    e1, e2 = _join(row * n + col, col * n + row)  # pairs g_j[a, b] g_k[b, a]
    gram = np.zeros((ngen, ngen), dtype=np.complex128)
    np.add.at(gram, (gen[e1], gen[e2]), val[e1] * val[e2])
    if np.abs(gram - 2.0 * np.eye(ngen)).max() > 1e-12:
        raise NumericsError("generator orthogonality residual exceeds 1e-12")

    f_tensor, d_tensor = _sparse_tensors(gen, row, col, val, n)

    # Ordered expansion of the d entries for fast a' contraction.
    expanded = [(p, v) for key, v in d_tensor.items() for p in set(permutations(key))]
    index = np.array([p for p, _ in expanded], dtype=np.intp).reshape(-1, 3) - 1
    values = np.array([v for _, v in expanded], dtype=np.float64)
    d_ordered = (*np.ascontiguousarray(index.T), values)

    stack.setflags(write=False)
    generators = tuple(HermitianMatrix(m) for m in mats)
    return GeneratorBasis(n, generators, f_tensor, d_tensor, stack, d_ordered)


_BASIS_CACHE: dict[int, GeneratorBasis] = {}


def basis_for(n: int) -> GeneratorBasis:
    """Cached accessor for ``build_basis(n)``."""
    n = operator.index(n)  # a float would hit the int's cache entry
    basis = _BASIS_CACHE.get(n)
    if basis is None:
        basis = build_basis(n)
        _BASIS_CACHE[n] = basis
    return basis


def _check_index(basis: GeneratorBasis, idx: int) -> None:
    if not 1 <= idx <= basis.n_generators:
        raise IndexError(f"generator index {idx} outside 1..{basis.n_generators}")


def _sorted_signed(j: int, k: int, l: int) -> tuple[tuple[int, int, int], float]:
    tagged = sorted(((j, 0), (k, 1), (l, 2)))
    order = tuple(pos for _, pos in tagged)
    sign = 1.0 if order in _EVEN_ORDERS else -1.0
    return (tagged[0][0], tagged[1][0], tagged[2][0]), sign


def structure_f(basis: GeneratorBasis, j: int, k: int, l: int) -> float:
    """Antisymmetric structure constant f_jkl (1-based indices)."""
    for idx in (j, k, l):
        _check_index(basis, idx)
    if j == k or k == l or j == l:
        return 0.0
    key, sign = _sorted_signed(j, k, l)
    return sign * basis.f_tensor.get(key, 0.0)


def structure_d(basis: GeneratorBasis, j: int, k: int, l: int) -> float:
    """Symmetric structure constant d_jkl (1-based indices)."""
    for idx in (j, k, l):
        _check_index(basis, idx)
    key = tuple(sorted((j, k, l)))
    return basis.d_tensor.get(key, 0.0)


def max_algebra_residual(basis: GeneratorBasis) -> float:
    """Worst entrywise error when products g_j g_k are rebuilt from the
    stored tensors via g_j g_k = (2/N) δ_jk I + Σ_l (i f_jkl + d_jkl) g_l,
    over the entries (j, k, a, c) where either side has a term."""
    n, ngen = basis.dim, basis.n_generators
    stack = basis.stacked()
    gen, row, col = np.nonzero(stack)
    val = stack[gen, row, col]
    ordered = [(p, v) for key, v in basis.d_tensor.items() for p in set(permutations(key))]
    ordered += [
        (tuple(key[o] for o in order), (1.0j if order in _EVEN_ORDERS else -1.0j) * v)
        for key, v in basis.f_tensor.items()
        for order in permutations(range(3))
    ]
    index = np.array([p for p, _ in ordered], dtype=np.intp).reshape(-1, 3) - 1
    coef = np.array([v for _, v in ordered], dtype=np.complex128)
    e1, e2 = _join(row, col)  # products g_j[a, b] g_k[b, c]
    t, e = _join(gen, index[:, 2])  # rebuilt terms (d + i f)_jkl g_l[a, c]
    jj, aa = np.divmod(np.arange(ngen * n), n)  # identity terms (2/N) δ_jk δ_ac
    j = np.concatenate([gen[e1], index[t, 0], jj])
    k = np.concatenate([gen[e2], index[t, 1], jj])
    a = np.concatenate([row[e1], row[e], aa])
    c = np.concatenate([col[e2], col[e], aa])
    terms = np.concatenate([val[e1] * val[e2], -coef[t] * val[e], np.full(jj.size, -2.0 / n)])
    _, slot = np.unique(((j * ngen + k) * n + a) * n + c, return_inverse=True)
    diff = np.zeros(slot.max() + 1, dtype=np.complex128)
    np.add.at(diff, slot, terms)
    return float(np.abs(diff).max())


def verify_algebra(basis: GeneratorBasis) -> bool:
    """True iff every generator product is reproduced by the stored
    tensors to 1e-11 entrywise."""
    return max_algebra_residual(basis) <= 1e-11
