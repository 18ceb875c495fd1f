"""Deterministic, seedable random states and observables.

Random number generation is fully pinned down so that any independent
implementation of the same recipe reproduces identical draws bit for
bit:

* Core generator: **xoshiro256++** (Blackman & Vigna).  State transition:
  ``t = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t;
  s3 = rotl(s3, 45)``; output ``rotl(s0 + s3, 23) + s0``, all modulo
  2⁶⁴.
* Stream seeding: stream ``k`` of seed ``s`` takes its four state words
  from outputs ``4k .. 4k+3`` of the **splitmix64** sequence seeded with
  ``s`` (splitmix64 state advances by 0x9E3779B97F4A7C15 per output, so
  stream starts are O(1) and never overlap).
* Uniforms: ``(next_u64() >> 11) * 2**-53`` in [0, 1).
* Gaussians: **Box-Muller** on uniform pairs ``(u1, u2)`` with
  ``r = sqrt(-2 ln(1 - u1))``, yielding ``r cos(2π u2)`` then
  ``r sin(2π u2)``.  Requests for an odd count discard the trailing
  partner, so consumption is always a whole number of pairs.
* Complex Gaussians: ``(z_even + i z_odd) / sqrt(2)`` pairing consecutive
  real Gaussians.

Samplers draw sample ``i`` from stream ``i``, so prefixes of a run are
reproducible independently of batch sizes or worker counts.

Measures: pure states are Haar-distributed (first column of the unitary
QR factor of a square complex Gaussian matrix, diagonal phases
corrected); mixed states follow the Hilbert-Schmidt (Ginibre) measure
rho = GG† / Tr[GG†] with G a square complex Gaussian matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bloch import Observable, QuantumState, observable_from_bloch, state_from_matrix
from .linalg import HermitianMatrix
from .sun_basis import GeneratorBasis, basis_for

__all__ = [
    "Xoshiro256pp",
    "SampleConfig",
    "iter_states",
    "draw_pure",
    "draw_mixed",
    "draw_observable",
]

_M64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi


def _sm64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, advanced state)."""
    state = (state + _SM_GAMMA) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31), state


class Xoshiro256pp:
    """xoshiro256++ with splitmix64 stream derivation (see module docs)."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if stream < 0:
            raise ValueError("stream index must be nonnegative")
        state = (seed + 4 * stream * _SM_GAMMA) & _M64
        words = []
        for _ in range(4):
            out, state = _sm64(state)
            words.append(out)
        if not any(words):
            words[0] = _SM_GAMMA  # the all-zero state is invalid for xoshiro
        self._s0, self._s1, self._s2, self._s3 = words

    def next_u64(self) -> int:
        s0 = self._s0
        s1 = self._s1
        s2 = self._s2
        s3 = self._s3
        x = (s0 + s3) & _M64
        result = (((x << 23) | (x >> 41)) + s0) & _M64
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s0 = s0
        self._s1 = s1
        self._s2 = s2
        self._s3 = ((s3 << 45) | (s3 >> 19)) & _M64
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller (whole pairs consumed)."""
        out = np.empty(2 * ((n + 1) // 2))
        for i in range(0, out.size, 2):
            u1 = self.uniform()
            u2 = self.uniform()
            r = math.sqrt(-2.0 * math.log(1.0 - u1))
            out[i] = r * math.cos(_TWO_PI * u2)
            out[i + 1] = r * math.sin(_TWO_PI * u2)
        return out[:n]

    def complex_gaussians(self, n: int) -> np.ndarray:
        """n standard complex normals (unit total variance per entry)."""
        g = self.gaussians(2 * n)
        return (g[0::2] + 1j * g[1::2]) / math.sqrt(2.0)


_KINDS = ("haar_pure", "hs_mixed")


@dataclass(frozen=True)
class SampleConfig:
    """What to draw: ensemble kind, dimension, count, and the seed."""

    seed: int
    dim: int
    count: int
    kind: str

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")


def draw_pure(rng: Xoshiro256pp, basis: GeneratorBasis) -> QuantumState:
    """One Haar-random pure state as a density matrix."""
    n = basis.dim
    g = rng.complex_gaussians(n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0  # measure-zero guard
    psi = (q * (diag / np.abs(diag)))[:, 0]
    rho = np.outer(psi, psi.conj())
    return state_from_matrix(HermitianMatrix(rho), basis)


def draw_mixed(rng: Xoshiro256pp, basis: GeneratorBasis) -> QuantumState:
    """One Hilbert-Schmidt (Ginibre) mixed state."""
    n = basis.dim
    g = rng.complex_gaussians(n * n).reshape(n, n)
    m = g @ g.conj().T
    rho = m / np.trace(m).real
    return state_from_matrix(HermitianMatrix(rho), basis)


def draw_observable(rng: Xoshiro256pp, basis: GeneratorBasis, unit: bool = True) -> Observable:
    """One observable with isotropic Gaussian coefficients.

    Normalized to |a| = 1 by default, which makes it uniform on the
    coefficient sphere.
    """
    n = basis.n_generators
    while True:
        g = rng.gaussians(n)
        norm = float(np.linalg.norm(g))
        if norm >= 1e-12:
            break
    if unit:
        g = g / norm
    return observable_from_bloch(g, basis)


def iter_states(cfg: SampleConfig) -> Iterator[QuantumState]:
    """Yield the configured states one by one; sample i uses stream i."""
    draw = draw_pure if cfg.kind == "haar_pure" else draw_mixed
    basis = basis_for(cfg.dim)
    for i in range(cfg.count):
        yield draw(Xoshiro256pp(cfg.seed, stream=i), basis)
