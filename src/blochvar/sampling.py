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
  stream starts are O(1) and never overlap).  Word ``w`` is the
  splitmix64 mix of state ``s + (4k + w + 1) * 0x9E3779B97F4A7C15``
  (mod 2⁶⁴), computed directly, not by stepping, so ``XoshiroLanes``
  mixes the four words of all its lanes in one pass over a (4, lanes)
  array, and both generators share the mixer (``_sm64``).  A stream whose
  four words are all zero, a state xoshiro cannot leave, would take
  0x9E3779B97F4A7C15 as its first word.
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
stream (``streams``), and ``take`` copies out some of its lanes.
``draw_batches`` is the lanes form of the draws: it draws a plan of
them one after another, a whole sample (a state, then the directions of
A and B) or appendix-c try (the directions of A and B, then a mixed
state) in one pass, or a single draw as a one-entry plan: one
``gaussians`` call for the plan, whose runs are even-sized so that its
Box-Muller pairs are those of separate calls, so every lane takes
``sum(plan_widths(plan, N))`` u64s.  A plan lists states and unit
directions (``DIRECTION``, ``draw_direction``) alone: an observable is
a direction plus its construction, which the engine makes, once for
every direction of a chunk (``engine.chunks``) or of one sample
(``engine._sample``).  A direction whose Gaussians fall below
``_MIN_NORM`` is a failed draw, as a failed check is:
``draw_direction`` raises ``NumericsError`` and ``draw_batches`` marks
the row ``bad``.
``lane_chunks`` yields a run's generators, ``ENGINE_CHUNK`` streams
each, fewer above N = 4 so that a chunk's (rows, N, N) stacks hold at
most ``_CHUNK_ENTRIES`` entries, and a chunk's first failing lane goes
back to the scalar path (``engine.chunks``), which raises that stream's
own exception.

``ahead`` lays copies of each lane side by side, copy t standing t
jumps of a fixed number of u64s further on.  A jump is exact: the
xoshiro256 state transition (shifts, rotations and XORs of the four
words) is linear over GF(2), so "M steps on" is one fixed 256 x 256 bit
matrix, the one behind xoshiro's own ``jump()`` (Blackman & Vigna) and
F2-linear jump-ahead in general (Haramoto et al., 2008).
``_jump_table`` builds its columns by running ``_step`` M times on the
256 unit states, so it agrees with the generator by construction, and
stores them as a table per 4-bit nibble of the state; a jump is one
gather of 64 table entries and their XOR.

``uniforms(k)`` uses the same jump to take fewer steps.  A lanes step is
a dozen numpy calls, so k steps cost about k times numpy's per-call
floor at a few dozen lanes.  Where ``_segment_steps`` finds it pays, the
draw goes in c = ceil(k / m) segments of m u64s: ``ahead(c, m)`` lays
each lane's segment starts side by side, all c copies step m times
together, and the values are reassembled in draw order.  The end state
is exact: the last segment starts (c - 1) m u64s on, so after its
r = k - (c - 1) m steps it stands where k steps leave the lane, and the
lane takes that state.

Measures: pure states are Haar-distributed (first column of the unitary
QR factor of a square complex Gaussian matrix, diagonal phases
corrected); mixed states follow the Hilbert-Schmidt (Ginibre) measure
rho = GG† / Tr[GG†] with G a square complex Gaussian matrix.
``draw_state`` is the one place that picks the measure of a stream.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .bloch import (
    Observable,
    QuantumState,
    StateBatch,
    completely_mixed,
    observable_from_bloch,
    repeat_state,
    state_from_matrix,
    state_from_matrix_batch,
)
from .errors import NumericsError
from .linalg import HermitianMatrix, per_element, row_dot
from .sun_basis import GeneratorBasis

__all__ = [
    "Xoshiro256pp",
    "XoshiroLanes",
    "ENGINE_CHUNK",
    "lane_chunks",
    "DIRECTION",
    "Directions",
    "plan_widths",
    "draw_batches",
    "SampleConfig",
    "draw_state",
    "draw_pure",
    "draw_mixed",
    "draw_direction",
    "draw_observable",
]

_M64 = (1 << 64) - 1
_MIN_NORM = 1e-12  # direction draws below this norm raise NumericsError
_SM_GAMMA = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi

# Streams per chunk of the batched engine: it holds a few dozen arrays of
# this many rows at a time, so its memory is bounded at any sample count.
ENGINE_CHUNK = 2048
# Entries of a chunk's (rows, N, N) stacks: above N = 4 a chunk has
# _CHUNK_ENTRIES // N² rows, so that its memory stays flat in N (192 rows
# at N = 16).  verify appendix-c --dim 16 --samples 2100 read 49, 56, 68
# and 94 MB max RSS at 24,576, 49,152, 98,304 and 196,608 entries, and
# 129 MB in 2,048-row chunks, its run time level within run-to-run noise
# (2 vCPU Xeon); 49,152 keeps both cap runs well under 70 MB.
_CHUNK_ENTRIES = 49_152


# (w + 1) GAMMA, as uint64, for word w of a stream (see _sm64).
_SM_OFFSETS = np.array([[(w + 1) * _SM_GAMMA & _M64] for w in range(4)], dtype=np.uint64)


def _seed(seed) -> int:
    """``seed`` as a Python int, so that a numpy integer does not overflow
    int64 in the stream arithmetic; a float raises TypeError, and a seed
    outside [0, 2**64) ValueError."""
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return seed


def _sm64(z):
    """The splitmix64 output of state z, a Python int or a uint64 array.
    Word w of stream k of seed s is the output of state s + (4k + w + 1)
    GAMMA (mod 2**64): outputs 4k .. 4k + 3 of the sequence seeded with s."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class Xoshiro256pp:
    """xoshiro256++ with splitmix64 stream derivation (see module docs)."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int, stream: int = 0):
        # Python ints, so that numpy integers (a lane's stream, say) do not
        # overflow int64 below; floats raise TypeError.
        seed = _seed(seed)
        stream = operator.index(stream)
        if stream < 0:
            raise ValueError("stream index must be nonnegative")
        words = [_sm64((seed + (4 * stream + w + 1) * _SM_GAMMA) & _M64) for w in range(4)]
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
    draws.  Each draw returns one row per lane and advances every lane;
    ``take`` narrows a generator to some of its lanes, and ``ahead``
    widens it with jumped copies of them.
    """

    __slots__ = ("_s", "streams")

    def __init__(self, seed: int, streams):
        seed = _seed(seed)
        streams = np.asarray(streams)
        if streams.size and streams.dtype.kind not in "iu":  # [] reads as float
            raise TypeError("stream indices must be integers")
        streams = streams.astype(np.int64, copy=False)
        if streams.size and streams.min() < 0:
            raise ValueError("stream index must be nonnegative")
        # The four words of every lane in one pass, in wrapping uint64
        # arithmetic (see _sm64).
        state = streams.astype(np.uint64) * np.uint64(4 * _SM_GAMMA & _M64) + np.uint64(seed)
        self._s = _sm64(state + _SM_OFFSETS)
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
        """k uniform doubles in [0, 1) per lane, in draw order.

        Stepped, or in segments side by side where ``_segment_steps``
        finds that pays (see the module docs): the values and the lanes'
        end states are the same either way."""
        m = _segment_steps(self._s.shape[1], k)
        if m:
            u = self._segmented(k, m)
        else:
            u = np.empty((self._s.shape[1], k))
            for i in range(k):
                u[:, i] = _step(self._s) >> _SHIFT[11]
        u *= 2.0**-53  # the 53-bit integers convert exactly
        return u

    def _segmented(self, k: int, m: int) -> np.ndarray:
        # The top 53 bits of each lane's next k u64s, as floats, drawn in
        # c segments of m: copy t of ``ahead(c, m)`` draws segment t, all
        # copies stepping together, and the lanes take the last copy's
        # state after its r <= m steps, where their k-th u64 leaves them.
        copies = -(-k // m)
        r = k - (copies - 1) * m
        lanes = self._s.shape[1]
        rng = self.ahead(copies, m)
        u = np.empty((lanes, copies, m))  # [lane, segment, step]: draw order
        for i in range(m):
            u[:, :, i] = (_step(rng._s) >> _SHIFT[11]).reshape(copies, lanes).T
            if i + 1 == r:
                self._s[...] = rng._s[:, (copies - 1) * lanes :]
        return u.reshape(lanes, copies * m)[:, :k]

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

    def ahead(self, copies: int, steps: int) -> XoshiroLanes:
        """``copies`` copies of every lane as one generator, copy t standing
        ``t * steps`` u64s further on: its lane t * lanes + k is lane k
        jumped t times (see ``_jump``); the jump table is built only if
        ``copies`` > 1.  A copy, so drawing from it does not advance this
        one."""
        states = [self._s]
        for _ in range(copies - 1):
            states.append(_jump(states[-1], _jump_table(steps)))
        rng = XoshiroLanes.__new__(XoshiroLanes)
        rng._s = np.concatenate(states, axis=1)
        rng.streams = np.tile(self.streams, copies)
        return rng


def _complex_pairs(g: np.ndarray) -> np.ndarray:
    # Consecutive Gaussians of each row as complex ones (see the module docs).
    z = 1j * g[:, 1::2]
    z += g[:, 0::2]  # complex addition commutes bit for bit
    z /= math.sqrt(2.0)
    return z


# A jump of L lanes counts as one step plus a step per _JUMP_LANES lanes:
# the value that puts the edge of ``_segment_steps`` where segmented
# draws stopped paying, timed against stepped ones from 16 to 2,048 lanes
# and k from 4 to 512 (2 vCPU Xeon).
_JUMP_LANES = 24


def _segment_steps(lanes: int, k: int) -> int:
    """The u64s m of a segment in which ``uniforms(k)`` draws on ``lanes``
    lanes, or 0 to step: segments of m = round(sqrt(3k)) u64s pay where
    the k - m steps they save outweigh their c - 1 jumps.  m depends on
    k alone, so the draws of a run build a jump table per distinct k."""
    m = round(math.sqrt(3 * k))
    if m >= k:
        return 0
    jumps = -(-k // m) - 1
    return m if jumps * (lanes + _JUMP_LANES) < (k - m) * _JUMP_LANES else 0


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


@functools.cache
def _jump_table(steps: int) -> np.ndarray:
    """The map "``steps`` u64s on" of a xoshiro256 state as a nibble table
    (see the module docs), from ``_step`` run on the 256 unit states:
    entry [i, v] is the image of nibble i (bits 4i .. 4i + 3 of the 256,
    word i // 16 first) holding v, as four uint64 words."""
    bit = np.arange(256)
    units = np.zeros((4, 256), dtype=np.uint64)
    units[bit // 64, bit] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    for _ in range(steps):
        _step(units)
    images = units.T.reshape(64, 4, 4)  # [nibble, bit of the nibble, word]
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    for b in range(4):
        table[:, (np.arange(16) >> b) & 1 == 1] ^= images[:, None, b]
    return table


_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)[:, None]
_NIBBLE_ROWS = np.arange(0, 1024, 16).reshape(4, 16, 1)  # nibble i's rows of the table


def _jump(s: np.ndarray, table: np.ndarray) -> np.ndarray:
    # The (4, lanes) state s moved on by the map of ``_jump_table``: one
    # gather of the images of its 64 nibbles, XORed together.
    rows = ((s[:, None, :] >> _NIBBLE_SHIFTS) & np.uint64(15)).view(np.int64)
    rows += _NIBBLE_ROWS
    images = table.reshape(1024, 4).take(rows.reshape(64, -1), axis=0)
    return np.ascontiguousarray(np.bitwise_xor.reduce(images, axis=0).T)


def lane_chunks(seed: int, count: int, dim: int) -> Iterator[XoshiroLanes]:
    """Generators of streams 0 .. count - 1 of ``seed`` for draws of
    dimension ``dim``, each of ``ENGINE_CHUNK`` streams or of
    ``_CHUNK_ENTRIES // dim**2``, whichever is fewer."""
    rows = min(ENGINE_CHUNK, _CHUNK_ENTRIES // (dim * dim))
    for start in range(0, count, rows):
        yield XoshiroLanes(seed, np.arange(start, min(start + rows, count)))


_KINDS = ("haar_pure", "hs_mixed", "alternating", "maximally_mixed")


@dataclass(frozen=True)
class SampleConfig:
    """What to draw: ensemble kind (one of ``draw_state``'s), dimension,
    count, and the seed."""

    seed: int
    dim: int
    count: int
    kind: str

    def __post_init__(self):
        # Floats raise TypeError here, as in Xoshiro256pp, not in a draw.
        _seed(self.seed)
        for value in (self.dim, self.count):
            operator.index(value)
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


def draw_direction(rng: Xoshiro256pp, basis: GeneratorBasis) -> np.ndarray:
    """One unit vector of N² - 1 isotropic Gaussian coefficients, uniform
    on the coefficient sphere.

    Gaussians whose norm falls below ``_MIN_NORM`` (at most 2**-53
    likely per draw at N = 2) raise ``NumericsError``.
    """
    g = rng.gaussians(basis.n_generators)
    norm = float(np.linalg.norm(g))
    if not norm >= _MIN_NORM:
        raise NumericsError(f"observable Gaussians of norm {norm!r} below {_MIN_NORM!r}")
    return g / norm


def draw_observable(rng: Xoshiro256pp, basis: GeneratorBasis) -> Observable:
    """The observable of ``draw_direction``'s unit vector, |a| = 1.

    For a Gaussian observable that is not normalized, pass
    ``rng.gaussians`` to ``observable_from_bloch``.
    """
    return observable_from_bloch(draw_direction(rng, basis), basis)


# The entry of a draw_batches plan that draws a unit direction; the
# others are draw_state kinds.
DIRECTION = "direction"


class Directions(NamedTuple):
    """Unit directions, one per row: ``a`` (n, N²-1) and ``bad`` (n,),
    the rows below ``_MIN_NORM`` (their ``a`` is unspecified)."""

    a: np.ndarray
    bad: np.ndarray


def plan_widths(plan, dim: int) -> list[int]:
    """The Gaussians, and so the u64s, each draw of ``plan`` takes a lane:
    2 N² for a state's N² complex ones, none for I/N, and N² - 1 in whole
    pairs for a direction, whether it passes ``_MIN_NORM`` or not."""
    n2 = dim * dim
    sizes = {DIRECTION: 2 * (n2 // 2), "maximally_mixed": 0}
    return [sizes.get(kind, 2 * n2) for kind in plan]


def draw_batches(plan, rng: XoshiroLanes, basis: GeneratorBasis) -> list:
    """The draws of ``plan`` on every lane, one after another: each entry
    is a ``draw_state`` kind or ``DIRECTION``, and on lane k gives, bit for
    bit, what ``draw_state`` (sample ``rng.streams[k]``) or
    ``draw_direction`` gives on that lane's stream, and the lanes end
    where those calls leave the streams.

    One ``gaussians`` call draws the whole plan, split into each draw's
    run (even-sized, so the Box-Muller pairs are those of separate calls).
    A direction below ``_MIN_NORM`` is a ``bad`` row, where
    ``draw_direction`` raises."""
    lanes = rng.streams.size
    widths = plan_widths(plan, basis.dim)
    runs = np.split(rng.gaussians(sum(widths)), np.cumsum(widths)[:-1], axis=1)
    n = basis.n_generators
    units = [i for i, kind in enumerate(plan) if kind == DIRECTION]
    vec = np.array([runs[i][:, :n] for i in units]).reshape(-1, n)
    norm = np.sqrt(row_dot(vec, vec))
    vec /= norm[:, None]
    low = ~(norm >= _MIN_NORM)
    states = {
        i: _complex_pairs(runs[i])
        for i, kind in enumerate(plan)
        if kind not in (DIRECTION, "maximally_mixed")
    }
    del runs  # freed before the checks allocate theirs
    out = [repeat_state(completely_mixed(basis), lanes) if kind == "maximally_mixed" else None
           for kind in plan]
    for i in list(states):
        pure = _pure_streams(plan[i], rng.streams)
        out[i] = _state_rows(states.pop(i).reshape(-1, basis.dim, basis.dim), pure, basis)
    for k, i in enumerate(units):
        rows = slice(k * lanes, (k + 1) * lanes)
        out[i] = Directions(vec[rows], low[rows])
    return out


def _state_rows(g: np.ndarray, pure: np.ndarray, basis: GeneratorBasis) -> StateBatch:
    # Stacked (k, n, n) complex Gaussian matrices -> the states drawn from
    # them, Haar pure on the ``pure`` rows and Hilbert-Schmidt elsewhere;
    # a measure with no rows is not run (a QR of an empty stack costs
    # what a small one does).
    rho = np.empty_like(g)
    for rows, measure in ((pure, _pure_rho), (~pure, _mixed_rho)):
        if rows.any():
            rho[rows] = measure(g[rows])
    del g  # freed before the checks allocate theirs
    return state_from_matrix_batch(rho, basis)
