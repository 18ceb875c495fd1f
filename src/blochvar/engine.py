"""The lanes engine: verify's relation table, and the one loop that
draws and checks a run on lanes.

Each row of ``RELATIONS`` names what a sample of its relation draws (a
``sampling.draw_batches`` plan) and its scalar checker in ``relations``,
whose lanes twin is the same name with ``_batch`` appended, taking the
same arguments (``_lanes``).  ``chunks`` is the loop: on each chunk of
streams (``sampling.lane_chunks``) it draws a row's plan, runs its lanes
twin, replays the chunk's first bad lane through ``_sample``, and yields
the chunk's values.  ``fuzz`` summarizes verify's margins from it
(``_verdicts``), and the region scans run their scan points of
``relations`` through it with rows of their own (``regions._scan``).
``_sample`` draws and checks one sample on its own stream: the oracle,
and the replay.  Sample i always comes from stream i.  Appendix-c's
rejection draws run in rounds on the lanes still pending
(``_appendix_c_lanes``).

Every call into the package goes through a module attribute looked up at
call time (``sampling.draw_batches``, ``getattr(relations, name)``), never
through a name copied in at import, so that a wrapper put on a module's
attribute (the tracer of ``bench/``, a test's patch) sees every call
made here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import bloch, linalg, relations, sampling, sun_basis
from .errors import NumericsError, UnphysicalState

__all__ = ["Relation", "RELATIONS", "chunks", "fuzz"]


class Relation(NamedTuple):
    """How ``chunks`` draws and checks one relation.

    ``plan`` lists a sample's draws in order, as ``sampling.draw_batches``
    takes them; the checkers see its state as ``state`` and its
    observables as ``a`` and ``b`` (``_call``).  ``plan`` None is
    appendix-c's rejection loop, whose accepted tries give them.
    ``check`` names a function of ``relations`` and the arguments it
    takes, of those, ``basis``, ``index`` (the sample's stream) and the
    ``given`` ones (``theta_ab`` in ``verify``); it returns a sample's
    verdict, or a tuple of them.  Its lanes twin, ``check``'s name with
    ``_batch`` appended (``_lanes``), takes the same arguments as batch
    rows and returns their (margins, bad), a column per verdict,
    bit-identical to ``_sample``'s.  Verdicts hold at ``tol``.  ``dims``
    are the N the relation is defined for (None: any N >= 2).
    """

    dims: tuple[int, ...] | None
    plan: tuple[str, ...] | None
    check: tuple[str, ...]
    tol: float = relations.HOLDS_TOL


_OBS = sampling.OBSERVABLE
_AB_STATE = ("a", "b", "state")

RELATIONS = {
    "triangle": Relation((2,), ("alternating", _OBS, _OBS), ("check_triangle", *_AB_STATE)),
    "theorem1": Relation((2,), ("alternating", _OBS, _OBS), ("check_theorem1", *_AB_STATE)),
    "mixed-limit": Relation(
        (2,), ("maximally_mixed", _OBS, _OBS), ("check_mixed_limit", *_AB_STATE)
    ),
    "pure-limit": Relation((2,), ("haar_pure", _OBS, _OBS), ("check_pure_limit", *_AB_STATE)),
    "unit-vector": Relation(
        (2,), ("haar_pure", _OBS, _OBS), ("check_unit_vector_state", *_AB_STATE)
    ),
    "three-obs-equality": Relation(
        (2,), ("haar_pure",), ("check_three_observable_equality", "theta_ab", "state")
    ),
    "appendix-b": Relation((2,), ("hs_mixed",), ("check_appendix_b", "state")),
    "appendix-c": Relation(
        None, None, ("check_appendix_c", *_AB_STATE, "basis"), relations.APPENDIX_C_TOL
    ),
    "robertson": Relation(None, ("alternating", _OBS, _OBS), ("robertson_bound", *_AB_STATE)),
    "state-dependent": Relation(
        (2,), ("haar_pure", _OBS, _OBS), ("state_dependent_bounds", *_AB_STATE)
    ),
}


def _lanes(named: tuple[str, ...]) -> tuple[str, ...]:
    """The lanes twin of the checker ``named`` names: its ``_batch`` form,
    on the same arguments."""
    name, *params = named
    return (name + "_batch", *params)


def _call(named: tuple[str, ...], plan, drawn, **given):
    """The function of ``relations`` that ``named`` names, looked up now,
    called on the arguments it names: of ``given``, and of the draws of
    ``plan``, its state as ``state`` and its observables as ``a``, ``b``."""
    names = iter(("a", "b"))
    for kind, value in zip(plan, drawn):
        given[next(names) if kind == _OBS else "state"] = value
    name, *params = named
    return getattr(relations, name)(*(given[param] for param in params))


def _draw(plan, rng: sampling.Xoshiro256pp, basis, index: int) -> list:
    """The draws of ``plan`` for sample ``index``, one after another on its
    stream ``rng``: what ``sampling.draw_batches`` draws on its lane."""
    return [
        sampling.draw_observable(rng, basis)
        if kind == _OBS
        else sampling.draw_state(kind, rng, basis, index)
        for kind in plan
    ]


# ---------------------------------------------------------------------------
# appendix-c's rejection draws

# Tries of appendix-c's rejection loop per sample before it gives up.
_APPENDIX_C_TRIES = 200

# Rows of a later appendix-c round: each lane still pending draws this
# many tries over the pending count, at least one, side by side (see
# ``_appendix_c_lanes``).  A lanes round costs about the same at a few
# rows as at a few dozen, and 89%, 47% and 28% of the tries pass at
# N = 3, 6 and 10.  A round draws its tries in one pass
# (``sampling.draw_batches``), so each costs less, and more of them
# pay.  Of 16, 24, 32 and 48, 24 ran one pass of the bench's 54
# appendix-c jobs fastest (2 vCPU Xeon): best of 5 on seeds 0 and 1729,
# 657-662 ms against 663-686 (16), 665-697 (32) and 737-783 ms (48);
# best of 8 against 32 alone, 2-5 % ahead on seeds 0, 7 and 1729.
# Fewer rows also hold less.
_APPENDIX_C_ROUND_ROWS = 24


def _round_tries(pending: int) -> int:
    """Tries each of ``pending`` lanes draws in a later appendix-c round."""
    return max(1, _APPENDIX_C_ROUND_ROWS // pending)


# The draws of an appendix-c try, in order.
_TRY = (_OBS, _OBS, "hs_mixed")


def _try_steps(basis) -> int:
    """The u64s an appendix-c try draws, whether it passes or fails."""
    return sum(sampling.plan_widths(_TRY, basis.dim))


def _project_orthogonal_rows(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Each row of p with its components along span{a[i], b[i]} removed, by
    # Gram-Schmidt: a direction whose residual norm is <= 1e-12 is skipped.
    frame = []
    for v in (a, b):
        w = v
        for u, kept in frame:
            w = np.where(kept[:, None], w - linalg.row_dot(w, u)[:, None] * u, w)
        norm = np.sqrt(linalg.row_dot(w, w))
        frame.append((w / norm[:, None], norm > 1e-12))
    out = p
    for u, kept in frame:
        out = np.where(kept[:, None], out - linalg.row_dot(out, u)[:, None] * u, out)
    return out


def _appendix_c_draw(rng: sampling.Xoshiro256pp, basis, index: int) -> tuple:
    # Rejection sampling of (A, B, state) for sample ``index``: project the
    # Bloch vector onto the orthogonal complement of span{a, b}, then insist
    # the reconstruction is still physical.  Projection shrinks |p|, so
    # acceptance is high.
    for _ in range(_APPENDIX_C_TRIES):
        a, b, state = _draw(_TRY, rng, basis, index)
        p = _project_orthogonal_rows(state.p[None], a.a[None], b.a[None])[0]
        try:
            projected = bloch.state_to_matrix(p, basis)
        except UnphysicalState:
            continue
        mean_a, mean_b = float(a.a @ projected.p), float(b.a @ projected.p)
        if abs(mean_a) > relations.ZERO_MEAN_TOL or abs(mean_b) > relations.ZERO_MEAN_TOL:
            continue
        return a, b, projected
    raise RuntimeError("no valid zero-mean sample found; ensemble looks pathological")


def _appendix_c_lanes(rng: sampling.XoshiroLanes, basis):
    """Appendix-c's draw and check on the lanes of ``rng``.

    Returns ``(margins, bad)`` as a lanes checker does:
    ``bad`` marks the lanes on which the scalar draw or check raises,
    whose margins are unspecified.  Round 1 draws one try on every lane;
    a later round draws ``_round_tries`` tries on each lane still
    pending, side by side: try t starts from the lane's state jumped t
    tries on (``XoshiroLanes.ahead``).  Each lane takes its first try
    that the draw accepts or fails, and the lanes checker scores the
    accepted ones at once; a lane left pending goes on from where its
    last try ended.  Every try draws ``_try_steps`` u64s, a failed one
    (an observable below ``sampling._MIN_NORM``, say) too, so try t + 1
    starts where try t ends, and the lanes still pending have all spent
    the same tries.  Each lane has ``_APPENDIX_C_TRIES`` tries; one that
    spends them all is bad, as the scalar loop raises there.
    """
    row = RELATIONS["appendix-c"]  # its checkers read no axis angle
    margins = np.zeros(rng.streams.size)
    bad = np.zeros(rng.streams.size, dtype=bool)
    pending = np.arange(rng.streams.size)
    left = _APPENDIX_C_TRIES
    steps = _try_steps(basis)
    tries = 1
    while pending.size:
        if tries > 1:
            rng = rng.ahead(tries, steps)
        da, db, mixed = sampling.draw_batches(_TRY, rng, basis)
        failed = da.bad | db.bad | mixed.bad
        p = _project_orthogonal_rows(mixed.p, da.a, db.a)
        del mixed  # freed before the checker allocates its temporaries
        projected, unphysical = bloch.state_to_matrix_batch(p, basis)
        failed |= projected.bad & ~unphysical
        tol = relations.ZERO_MEAN_TOL
        rejected = unphysical | (np.abs(linalg.row_dot(da.a, projected.p)) > tol)
        rejected |= np.abs(linalg.row_dot(db.a, projected.p)) > tol
        rejected &= ~failed
        taken = _taken_tries(rejected, pending.size)
        left -= tries
        bad[pending[failed[taken]]] = True
        accepted = taken[~(failed | rejected)[taken]]
        if accepted.size:
            rows = (drawn._make(field[accepted] for field in drawn) for drawn in (da, db, projected))
            k = pending[accepted % pending.size]
            margins[k], bad[k] = _call(_lanes(row.check), _TRY, rows, basis=basis)
        going = rejected[taken]
        bad[pending[going & (left == 0)]] = True  # the scalar loop raises RuntimeError
        going &= left > 0
        rng = rng.take(taken[going])
        pending = pending[going]
        tries = min(_round_tries(pending.size or 1), left)
    return margins, bad


def _taken_tries(rejected: np.ndarray, lanes: int) -> np.ndarray:
    """The row of the try each lane of an appendix-c round on ``lanes``
    lanes takes, try t of lane k in row t * lanes + k: its first try that
    the draw does not reject, or else its last."""
    stop = ~rejected.reshape(-1, lanes)
    stop[-1] = True
    return stop.argmax(axis=0) * lanes + np.arange(lanes)


# ---------------------------------------------------------------------------
# the two paths


def _sample(relation, basis, seed: int, index: int, theta_ab: float = 0.0, **given) -> list:
    """The verdicts of sample ``index`` of ``relation``, a ``Relation`` or
    the name of a row of ``RELATIONS``, drawn from stream ``index`` and
    checked on ``given``."""
    row = RELATIONS[relation] if isinstance(relation, str) else relation
    rng = sampling.Xoshiro256pp(seed, stream=index)
    if row.plan is None:
        plan, drawn = _TRY, _appendix_c_draw(rng, basis, index)
    else:
        plan, drawn = row.plan, _draw(row.plan, rng, basis, index)
    verdicts = _call(row.check, plan, drawn, theta_ab=theta_ab, basis=basis, index=index, **given)
    return list(verdicts) if isinstance(verdicts, tuple) else [verdicts]


def chunks(row: Relation, basis, seed: int, count: int, **given):
    """Draw and check samples 0 .. count - 1 of ``row`` on lanes, a chunk
    of streams at a time: yield each chunk's ``(rng, drawn, values)``,
    its generator, its draws of ``row.plan`` (None for appendix-c) and
    its lanes checker's values on ``given``, ``index`` (the streams) and
    ``basis``.  The chunk's first bad row is replayed on its own stream
    (``_sample``), which raises that stream's own exception; if the
    replay passes, this raises ``NumericsError`` naming the sample."""
    for rng in sampling.lane_chunks(seed, count, basis.dim):
        with np.errstate(divide="ignore", invalid="ignore"):  # only bad rows divide by 0
            if row.plan is None:
                drawn, (values, bad) = None, _appendix_c_lanes(rng, basis)
            else:
                drawn = sampling.draw_batches(row.plan, rng, basis)
                values, bad = _call(
                    _lanes(row.check), row.plan, drawn, basis=basis, index=rng.streams, **given
                )
        if bad.any():
            first = int(rng.streams[bad.argmax()])
            _sample(row, basis, seed, first, **given)
            raise NumericsError(
                f"sample {first} (stream {first}): a lane check failed that the scalar checks pass"
            )
        yield rng, drawn, values


def _verdicts(relation: str, dim: int, samples: int, seed: int, theta_ab: float):
    """Yield the margins of every check, a chunk's at a time as a flat
    array, in stream order."""
    basis = sun_basis.basis_for(dim)
    for _, _, margins in chunks(RELATIONS[relation], basis, seed, samples, theta_ab=theta_ab):
        yield margins.ravel()


def fuzz(relation: str, dim: int, samples: int, seed: int, theta_ab: float) -> dict:
    """The summary of ``verify``'s report: checks, whether all hold, the
    worst and the largest absolute margin, and how many saturate.

    The worst and largest margins are those Python's ``min`` and ``max``
    take over the margins in stream order: NaN is skipped, and of equal
    ones (-0.0 and 0.0) the first is kept."""
    tol = RELATIONS[relation].tol
    worst = math.inf
    worst_abs = 0.0
    holds = True
    saturated = 0
    checks = 0
    for margins in _verdicts(relation, dim, samples, seed, theta_ab):
        checks += margins.size
        holds = holds and bool((margins >= -tol).all())
        saturated += int(np.count_nonzero(np.abs(margins) <= relations.SATURATION_TOL))
        margins = margins[~np.isnan(margins)]
        if margins.size:
            worst = min(worst, float(margins[margins.argmin()]))  # argmin: the first of a tie
            worst_abs = max(worst_abs, float(np.abs(margins).max()))
    return {
        "relation": relation,
        "checks": checks,
        "holds": holds,
        "worst_margin": worst,
        "max_abs_margin": worst_abs,
        "saturated": saturated,
    }
