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

``XoshiroLanes`` runs many streams at once as numpy ``uint64`` lanes,
one lane per stream, and draws exactly what ``Xoshiro256pp`` draws on
each; its ``math.log`` goes through Python per element because numpy's
``log`` differs from libm's in the last bit.  It knows each lane's
stream (``streams``), and ``take`` copies out some of its lanes.  The
``*_batch`` functions are the lanes forms of the draws; the zero-norm
re-draw of an observable advances only the lanes that need it.
``lane_chunks`` yields a run's generators, ``ENGINE_CHUNK`` streams
each, and ``replay_first_bad`` sends the first failing lane of a chunk
back to the scalar path, which raises that stream's own exception.

Measures: pure states are Haar-distributed (first column of the unitary
QR factor of a square complex Gaussian matrix, diagonal phases
corrected); mixed states follow the Hilbert-Schmidt (Ginibre) measure
rho = GG† / Tr[GG†] with G a square complex Gaussian matrix.
``draw_state`` is the one place that picks the measure of a stream.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bloch import (
    Observable,
    ObservableBatch,
    QuantumState,
    StateBatch,
    completely_mixed,
    observable_from_bloch,
    observable_from_bloch_batch,
    repeat_state,
    state_from_matrix,
    state_from_matrix_batch,
)
from .errors import NumericsError
from .linalg import HermitianMatrix, per_element, row_dot
from .sun_basis import GeneratorBasis, basis_for

__all__ = [
    "Xoshiro256pp",
    "XoshiroLanes",
    "ENGINE_CHUNK",
    "lane_chunks",
    "replay_first_bad",
    "draw_state_batch",
    "draw_observable_batch",
    "SampleConfig",
    "iter_states",
    "draw_state",
    "draw_pure",
    "draw_mixed",
    "draw_observable",
]

_M64 = (1 << 64) - 1
_MIN_NORM = 1e-12  # observable draws below this norm are drawn again
_SM_GAMMA = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi

# Streams per chunk of the batched engine: it holds a few dozen arrays of
# this many rows at a time, so its memory is bounded at any sample count.
ENGINE_CHUNK = 2048


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
        # Python ints, so that numpy integers (a lane's stream, say) do not
        # overflow int64 below; floats raise TypeError.
        seed = operator.index(seed)
        stream = operator.index(stream)
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


class XoshiroLanes:
    """Streams ``streams`` of one seed as uint64 lanes (see module docs).

    Lane k draws exactly what ``Xoshiro256pp(seed, stream=streams[k])``
    draws.  Each method returns one row per lane and advances every
    lane; ``take`` narrows a generator to some of its lanes.
    """

    __slots__ = ("_s", "streams")

    def __init__(self, seed: int, streams):
        if not 0 <= seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        streams = np.asarray(streams, dtype=np.int64)
        if streams.size and streams.min() < 0:
            raise ValueError("stream index must be nonnegative")
        # splitmix64 state seed + 4 k GAMMA, in wrapping uint64 arithmetic.
        state = np.uint64(seed) + streams.astype(np.uint64) * np.uint64(4 * _SM_GAMMA & _M64)
        words = []
        for _ in range(4):
            state = state + _SM_GAMMA
            z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB
            words.append(z ^ (z >> 31))
        self._s = np.stack(words)
        self._s[0, ~self._s.any(axis=0)] = _SM_GAMMA  # the all-zero state is invalid
        self.streams = streams

    def take(self, lanes) -> XoshiroLanes:
        """The generator of ``lanes`` (an index or mask array), as they
        stand; a copy, so drawing from it does not advance this one."""
        rng = XoshiroLanes.__new__(XoshiroLanes)
        rng._s = self._s[:, lanes]
        rng.streams = self.streams[lanes]
        return rng

    def next_u64(self) -> np.ndarray:
        return _step(self._s)

    def uniforms(self, k: int) -> np.ndarray:
        """k uniform doubles in [0, 1) per lane, in draw order."""
        u = np.empty((self._s.shape[1], k))
        for i in range(k):
            u[:, i] = _step(self._s) >> _SHIFT[11]
        u *= 2.0**-53  # the 53-bit integers convert exactly
        return u

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normals per lane via Box-Muller (whole pairs consumed)."""
        # In place where it computes the same: the arrays are (lanes, n).
        u = self.uniforms(2 * ((n + 1) // 2))
        r = per_element(math.log, 1.0 - u[:, 0::2])
        r *= -2.0
        np.sqrt(r, out=r)
        angle = u[:, 1::2]
        angle *= _TWO_PI
        u[:, 0::2] = np.cos(angle)
        u[:, 0::2] *= r
        np.sin(angle, out=angle)
        angle *= r
        return u[:, :n]

    def complex_gaussians(self, n: int) -> np.ndarray:
        """n standard complex normals per lane."""
        g = self.gaussians(2 * n)
        z = 1j * g[:, 1::2]
        z += g[:, 0::2]  # complex addition commutes bit for bit
        z /= math.sqrt(2.0)
        return z

    def lane(self, k: int) -> Xoshiro256pp:
        """A scalar generator that continues lane k from where it stands
        (``Xoshiro256pp(seed, stream=streams[k])`` after the same draws);
        drawing from it does not advance the lane."""
        rng = Xoshiro256pp.__new__(Xoshiro256pp)
        rng._s0, rng._s1, rng._s2, rng._s3 = self._s[:, k].tolist()
        return rng


# Shift counts as uint64 scalars: a Python int operand costs a conversion
# at every step.
_SHIFT = {k: np.uint64(k) for k in (11, 17, 19, 23, 41, 45)}


def _step(s: np.ndarray) -> np.ndarray:
    # One xoshiro256++ step of the (4, lanes) state s, in place.
    s0, s1, s2, s3 = s  # views: the in-place updates below advance s
    x = s0 + s3
    result = x << _SHIFT[23]
    result |= x >> _SHIFT[41]
    result += s0
    t = s1 << _SHIFT[17]
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    x = s3 >> _SHIFT[19]
    s3 <<= _SHIFT[45]
    s3 |= x
    return result


def lane_chunks(seed: int, count: int) -> Iterator[XoshiroLanes]:
    """Generators of streams 0 .. count - 1 of ``seed``, ``ENGINE_CHUNK`` at a time."""
    for start in range(0, count, ENGINE_CHUNK):
        yield XoshiroLanes(seed, np.arange(start, min(start + ENGINE_CHUNK, count)))


def replay_first_bad(bad: np.ndarray, rng: XoshiroLanes, replay) -> None:
    """Raise for the first stream of ``rng`` whose lane is ``bad``, if any.

    ``replay(stream)`` runs that sample on the scalar path, which raises
    the stream's own exception; if it passes instead, lanes and scalar
    checks disagree, and this raises ``NumericsError`` naming the sample.
    """
    if bad.any():
        first = int(rng.streams[bad.argmax()])
        replay(first)
        raise NumericsError(
            f"sample {first} (stream {first}): a lane check failed that the scalar checks pass"
        )


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


def _pure_rho(g: np.ndarray) -> np.ndarray:
    # Stacked (k, n, n) Gaussian matrices -> Haar pure density matrices.
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2).copy()
    diag[diag == 0] = 1.0  # measure-zero guard
    psi = (q * (diag / np.abs(diag))[:, None, :])[:, :, 0]
    return psi[:, :, None] * psi.conj()[:, None, :]


def _mixed_rho(g: np.ndarray) -> np.ndarray:
    # Stacked (k, n, n) Gaussian matrices -> Hilbert-Schmidt mixed states.
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def draw_pure(rng: Xoshiro256pp, basis: GeneratorBasis) -> QuantumState:
    """One Haar-random pure state as a density matrix."""
    n = basis.dim
    g = rng.complex_gaussians(n * n).reshape(1, n, n)
    return state_from_matrix(HermitianMatrix(_pure_rho(g)[0]), basis)


def draw_mixed(rng: Xoshiro256pp, basis: GeneratorBasis) -> QuantumState:
    """One Hilbert-Schmidt (Ginibre) mixed state."""
    n = basis.dim
    g = rng.complex_gaussians(n * n).reshape(1, n, n)
    return state_from_matrix(HermitianMatrix(_mixed_rho(g)[0]), basis)


def _pure_streams(kind: str, streams):
    # Which of ``streams`` (an index or an index array) draw a Haar pure
    # state in ensemble ``kind``; the others draw a Hilbert-Schmidt one.
    if kind == "alternating":
        return streams % 2 == 0
    if kind == "haar_pure":
        return streams >= 0  # every stream: stream indices are nonnegative
    if kind == "hs_mixed":
        return streams < 0  # no stream
    raise ValueError(f"unknown ensemble kind {kind!r}")


def draw_state(kind: str, rng: Xoshiro256pp, basis: GeneratorBasis, index: int) -> QuantumState:
    """Sample ``index`` of ensemble ``kind``, drawn from ``rng``, its stream.

    ``"haar_pure"`` and ``"hs_mixed"`` draw one measure on every stream,
    ``"alternating"`` draws pure states on even streams and mixed ones on
    odd streams, and ``"maximally_mixed"`` is I/N and draws nothing.
    """
    if kind == "maximally_mixed":
        return completely_mixed(basis)
    draw = draw_pure if _pure_streams(kind, index) else draw_mixed
    return draw(rng, basis)


def draw_state_batch(kind: str, rng: XoshiroLanes, basis: GeneratorBasis) -> StateBatch:
    """Lanes form of ``draw_state``: lane k is sample ``rng.streams[k]``,
    drawn as ``draw_pure`` or ``draw_mixed`` draws it (N² complex Gaussians)."""
    if kind == "maximally_mixed":
        return repeat_state(completely_mixed(basis), rng.streams.size)
    pure = _pure_streams(kind, rng.streams)
    n = basis.dim
    g = rng.complex_gaussians(n * n).reshape(-1, n, n)
    rho = np.empty_like(g)
    rho[pure] = _pure_rho(g[pure])
    rho[~pure] = _mixed_rho(g[~pure])
    del g  # freed before the checks allocate theirs
    return state_from_matrix_batch(rho, basis)


def draw_observable(rng: Xoshiro256pp, basis: GeneratorBasis, unit: bool = True) -> Observable:
    """One observable with isotropic Gaussian coefficients.

    Normalized to |a| = 1 by default, which makes it uniform on the
    coefficient sphere.
    """
    n = basis.n_generators
    while True:
        g = rng.gaussians(n)
        norm = float(np.linalg.norm(g))
        if norm >= _MIN_NORM:
            break
    if unit:
        g = g / norm
    return observable_from_bloch(g, basis)


def draw_observable_batch(rng: XoshiroLanes, basis: GeneratorBasis) -> ObservableBatch:
    """Lanes form of ``draw_observable(rng, basis)``: a lane whose draw
    has norm below ``_MIN_NORM`` draws again, and only that lane advances."""
    n = basis.n_generators
    g = rng.gaussians(n)
    norm = np.sqrt(row_dot(g, g))
    redraw = np.flatnonzero(~(norm >= _MIN_NORM))
    while redraw.size:
        again = rng.take(redraw)
        g[redraw] = again.gaussians(n)
        rng._s[:, redraw] = again._s
        norm[redraw] = np.sqrt(row_dot(g[redraw], g[redraw]))
        redraw = redraw[~(norm[redraw] >= _MIN_NORM)]
    return observable_from_bloch_batch(g / norm[:, None], basis)


def iter_states(cfg: SampleConfig) -> Iterator[QuantumState]:
    """Yield the configured states one by one; sample i uses stream i."""
    basis = basis_for(cfg.dim)
    for i in range(cfg.count):
        yield draw_state(cfg.kind, Xoshiro256pp(cfg.seed, stream=i), basis, i)
