"""The lanes engine: verify's relation table, and the one loop that
draws and checks a run on lanes.

Each row of ``RELATIONS`` names what a sample of its relation draws (a
``sampling.draw_batches`` plan of states and ``DIRECTION``s), its
scalar checker in ``relations``, and the private function of
``relations`` that states the relation, which takes the checker's
arguments, on one sample or on rows.  ``chunks`` is the loop: on each
chunk of streams (``sampling.lane_chunks``) it draws a row's plan,
builds the observable of every direction row in one call (``_build``),
runs the row's function on the rows, reduces its return to margins and
bad rows (``_lane_values``), replays the chunk's first bad lane through
``_sample``, and yields the chunk's values.  ``fuzz`` summarizes
verify's margins from it (``_verdicts``), the region scans run their scan points of
``relations`` through it with rows of their own (``regions._scan``),
and ``iter_states`` yields the states of a ``sampling.SampleConfig``
from it, with a row that draws one state and checks nothing more.
``_sample`` draws, builds and checks one sample on its own stream: the
oracle, and the replay.  Each path builds observables in one place.
Sample i always comes from stream i.  Appendix-c's rejection draws run
in rounds on the lanes still pending, which only decide, on the
directions of A and B and the projected state, by the relation's own
zero-mean test (``relations._zero_means``); they return the draws of
the try each lane takes, in the order of the one try plan ``_TRY``, on
lanes (``_appendix_c_lanes``) as on one stream (``_appendix_c_draw``),
and A and B are built from them as any plan's directions are.

Every call into the package goes through a module attribute looked up at
call time (``sampling.draw_batches``, ``getattr(relations, name)``), never
through a name copied in at import, so that a wrapper put on a module's
attribute (the tracer of ``bench/``, a test's patch) sees every call
made here.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from . import bloch, linalg, relations, sampling, sun_basis
from .errors import DimensionMismatch, NumericsError, UnphysicalState

__all__ = ["Relation", "RELATIONS", "chunks", "fuzz", "iter_states"]


class Relation(NamedTuple):
    """How ``chunks`` draws and checks one relation.

    ``plan`` lists a sample's draws in order, as ``sampling.draw_batches``
    takes them; the checkers see its state as ``state`` and the
    observables built on its directions as ``a`` and ``b`` (``_call``).
    ``plan`` None is appendix-c's rejection loop, whose accepted tries
    give the draws of ``_TRY``, on lanes as on one stream.
    ``check`` names a scalar checker of ``relations`` and the arguments
    it takes, of those, ``basis``, ``index`` (the sample's stream) and
    the ``given`` ones (``theta_ab`` in ``verify``); it returns a
    sample's verdict, or a tuple of them.  ``shared`` names the private
    function of ``relations`` that states the relation, which takes the
    same arguments, as rows on lanes, and returns (lhs, rhs, checks):
    ``_lane_values`` reduces them to the rows' margins, a column per
    verdict, bit-identical to ``_sample``'s, and the rows on which
    ``check`` raises; the rows whose draws failed are ``chunks``' to
    mark.  Verdicts hold at ``tol``.  ``check`` None checks nothing
    beyond the draws: a sample is its draws.  ``dims`` are the N the
    relation is defined for (None: any N >= 2), which ``chunks`` checks
    before it draws.
    """

    dims: tuple[int, ...] | None
    plan: tuple[str, ...] | None
    check: tuple[str, ...] | None
    shared: str | None = None
    tol: float = relations.HOLDS_TOL


_DIR = sampling.DIRECTION
_AB_STATE = ("a", "b", "state")

_PAIR = ("alternating", _DIR, _DIR)
_PURE_PAIR = ("haar_pure", _DIR, _DIR)

RELATIONS = {
    "triangle": Relation((2,), _PAIR, ("check_triangle", *_AB_STATE), "_triangle"),
    "theorem1": Relation((2,), _PAIR, ("check_theorem1", *_AB_STATE), "_theorem1"),
    "mixed-limit": Relation(
        (2,), ("maximally_mixed", _DIR, _DIR), ("check_mixed_limit", *_AB_STATE), "_mixed_limit"
    ),
    "pure-limit": Relation((2,), _PURE_PAIR, ("check_pure_limit", *_AB_STATE), "_pure_limit"),
    "unit-vector": Relation(
        (2,), _PURE_PAIR, ("check_unit_vector_state", *_AB_STATE), "_unit_vector_state"
    ),
    "three-obs-equality": Relation(
        (2,), ("haar_pure",), ("check_three_observable_equality", "theta_ab", "state"),
        "_three_observable_equality",
    ),
    "appendix-b": Relation((2,), ("hs_mixed",), ("check_appendix_b", "state"), "_appendix_b"),
    "appendix-c": Relation(
        None, None, ("check_appendix_c", *_AB_STATE, "basis"), "_appendix_c",
        relations.APPENDIX_C_TOL,
    ),
    "robertson": Relation(None, _PAIR, ("robertson_bound", *_AB_STATE), "_robertson"),
    "state-dependent": Relation(
        (2,), _PURE_PAIR, ("state_dependent_bound", *_AB_STATE), "_state_dependent"
    ),
}


def _call(name: str, row: Relation, plan, drawn, **given):
    """The function ``name`` of ``relations``, looked up now, called on
    the arguments ``row.check`` names: of ``given``, and of the built
    draws of ``plan``, its state as ``state`` and its observables as
    ``a``, ``b``."""
    names = iter(("a", "b"))
    for kind, value in zip(plan, drawn):
        given[next(names) if kind == _DIR else "state"] = value
    return getattr(relations, name)(*map(given.__getitem__, row.check[1:]))


def _lane_values(values: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``(margins, bad)`` of a relation's ``(lhs, rhs, checks)`` on rows:
    lhs - rhs, a column per verdict (state-dependent's two signs) or
    value (a scan point's), and the rows on which a check fails."""
    lhs, rhs, checks = values
    return np.subtract(lhs, rhs).T, linalg.failures(checks)


def _draw(plan, rng: sampling.Xoshiro256pp, basis, index: int) -> list:
    """The draws of ``plan`` for sample ``index``, one after another on its
    stream ``rng``: what ``sampling.draw_batches`` draws on its lane."""
    return [
        sampling.draw_direction(rng, basis) if kind == _DIR
        else sampling.draw_state(kind, rng, basis, index)
        for kind in plan
    ]


def _build(plan, drawn: list, basis) -> None:
    """Replace each direction of ``drawn``, ``plan``'s draws on lanes, by
    the observable built on it, bad where its direction is or the build
    fails: one ``observable_from_bloch_batch`` call builds them all (its
    kernels work row by row, so each row is what its own build gives),
    once the directions are dropped."""
    units = [i for i, kind in enumerate(plan) if kind == _DIR]
    if not units:
        return
    lanes = drawn[units[0]].a.shape[0]
    vec = np.concatenate([drawn[i].a for i in units])
    low = [drawn[i].bad for i in units]
    for i in units:
        drawn[i] = None  # freed before the build allocates its temporaries
    built = bloch.observable_from_bloch_batch(vec, basis)
    for k, (i, bad) in enumerate(zip(units, low)):
        rows = slice(k * lanes, (k + 1) * lanes)
        built.bad[rows] |= bad
        drawn[i] = bloch.ObservableBatch._make(f[rows] for f in built)


# ---------------------------------------------------------------------------
# appendix-c's rejection draws

# Tries of appendix-c's rejection loop per sample before it gives up.
_APPENDIX_C_TRIES = 200

# Rows of an appendix-c round: each lane still pending draws this many
# tries over the pending count, at least one, side by side (see
# ``_appendix_c_lanes``).  A lanes round costs about the same at a few
# rows as at a few dozen, and 89%, 47% and 28% of the tries pass at
# N = 3, 6 and 10.  A round draws its tries in one pass
# (``sampling.draw_batches``) and builds no observable, so each costs
# less, and more of them pay.  One pass of the bench's 54 appendix-c
# jobs (2 vCPU Xeon), best of 5 on seeds 0 and 1729: 455-486 ms at 24,
# against 469-491 (16), 445-467 (32), 503-507 (48) and 633-636 ms (96);
# 24 and 32 alone, best of 8 on seeds 0, 7 and 1729 in both orders,
# were within the runs' noise of each other (509-645 ms).  Fewer rows
# also hold less.
_APPENDIX_C_ROUND_ROWS = 24


def _round_tries(pending: int) -> int:
    """Tries each of ``pending`` lanes draws in an appendix-c round."""
    return max(1, _APPENDIX_C_ROUND_ROWS // pending)


# The draws of an appendix-c try, in order: the directions of A and B,
# then a mixed state.  The try decides on these alone, and the try taken
# gives them with the state projected, as any plan gives its draws.
_TRY = (_DIR, _DIR, "hs_mixed")


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


def _appendix_c_draw(rng: sampling.Xoshiro256pp, basis, index: int) -> list:
    # Rejection sampling of the draws of ``_TRY`` for sample ``index``:
    # project the Bloch vector onto the orthogonal complement of span{a, b},
    # then insist the reconstruction is still physical and the means vanish
    # (``relations._zero_means``).  Projection shrinks |p|, so acceptance is
    # high.
    for _ in range(_APPENDIX_C_TRIES):
        a, b, state = _draw(_TRY, rng, basis, index)
        p = _project_orthogonal_rows(state.p[None], a[None], b[None])[0]
        try:
            projected = bloch.state_to_matrix(p, basis)
        except UnphysicalState:
            continue
        if relations._zero_means(a, b, projected.p)[0]:
            return [a, b, projected]
    raise RuntimeError("no valid zero-mean sample found; ensemble looks pathological")


def _appendix_c_lanes(rng: sampling.XoshiroLanes, basis) -> list:
    """Appendix-c's draws on the lanes of ``rng``: the directions of A and
    B and the state of every lane, as ``sampling.draw_batches`` gives the
    draws of a plan (``_TRY``).

    The rounds only decide: each round draws ``_round_tries`` tries of
    ``_TRY`` on each lane still pending, side by side: try t starts from
    the lane's state jumped t tries on (``XoshiroLanes.ahead``).  Each
    lane takes its first try that the draw accepts or fails, and keeps
    the directions and the projected state of an accepted one; a try is
    accepted where the state is physical and ``relations._zero_means``
    holds, as in the scalar loop.  A lane left pending goes on from
    where its last try ended.  Every try draws ``_try_steps`` u64s, a
    failed one (a direction below ``sampling._MIN_NORM``, say) too, so
    try t + 1 starts where try t ends, and the lanes still pending have
    all spent the same tries.  Each lane has ``_APPENDIX_C_TRIES`` tries.
    Every row is bad on a lane whose taken try fails or that spends them
    all, as the scalar loop raises there; that lane's rows are
    unspecified (zeros).
    """
    lanes, n, dim = rng.streams.size, basis.n_generators, basis.dim
    # Each lane's accepted try: its directions of A and B, and its state;
    # zeros on the lanes that fail.
    directions = np.zeros((2, lanes, n))
    kept = bloch.StateBatch(
        np.zeros((lanes, dim, dim), complex), np.zeros((lanes, n)), np.zeros(lanes),
        np.zeros(lanes, dtype=bool),
    )
    pending = np.arange(lanes)
    left = _APPENDIX_C_TRIES
    steps = _try_steps(basis)
    while pending.size:
        tries = min(_round_tries(pending.size), left)
        rng = rng.ahead(tries, steps)
        da, db, mixed = sampling.draw_batches(_TRY, rng, basis)
        failed = da.bad | db.bad | mixed.bad
        p = _project_orthogonal_rows(mixed.p, da.a, db.a)
        del mixed  # freed before the reconstruction allocates its temporaries
        projected, unphysical = bloch.state_to_matrix_batch(p, basis)
        failed |= projected.bad & ~unphysical
        rejected = unphysical | ~relations._zero_means(da.a, db.a, projected.p)[0]
        rejected &= ~failed
        taken = _taken_tries(rejected, pending.size)
        left -= tries
        kept.bad[pending[failed[taken]]] = True
        passed = taken[~(failed | rejected)[taken]]
        k = pending[passed % pending.size]
        directions[:, k] = da.a[passed], db.a[passed]
        for out, field in zip(kept, projected):
            out[k] = field[passed]
        del da, db, p, projected  # freed before the next round draws
        going = rejected[taken]
        kept.bad[pending[going & (left == 0)]] = True  # the scalar loop raises RuntimeError
        going &= left > 0
        rng = rng.take(taken[going])
        pending = pending[going]
    return [*(sampling.Directions(d, kept.bad) for d in directions), kept]


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
    checked on ``given``; its draws, if the row checks nothing.  The
    observable of each direction is built after the sample's draws."""
    row = RELATIONS[relation] if isinstance(relation, str) else relation
    rng = sampling.Xoshiro256pp(seed, stream=index)
    if row.plan is None:
        plan, drawn = _TRY, _appendix_c_draw(rng, basis, index)
    else:
        plan, drawn = row.plan, _draw(row.plan, rng, basis, index)
    drawn = [bloch.observable_from_bloch(d, basis) if kind == _DIR else d
             for kind, d in zip(plan, drawn)]
    if row.check is None:
        return drawn
    verdicts = _call(
        row.check[0], row, plan, drawn, theta_ab=theta_ab, basis=basis, index=index, **given
    )
    return list(verdicts) if isinstance(verdicts, tuple) else [verdicts]


def chunks(row: Relation, basis, seed: int, count: int, **given):
    """Draw and check samples 0 .. count - 1 of ``row`` on lanes, a chunk
    of streams at a time: yield each chunk's ``(rng, drawn, values)``,
    its generator, its draws of ``row.plan`` (appendix-c's rejection
    draws of ``_TRY`` for ``plan`` None), each direction built into its
    observable (``_build``), and the margins of ``row.shared`` on
    ``given``, ``index`` (the streams) and ``basis`` (None if
    ``row.check`` is).  A row is bad where one of its draws or builds
    failed or a check of ``row.shared`` fails.  The chunk's first bad
    row is replayed on its own stream (``_sample``), which raises that
    stream's own exception; if the replay passes, this raises
    ``NumericsError`` naming the sample.  At an N outside ``row.dims``
    every row fails the checker's dimension check: this raises
    ``DimensionMismatch`` before it draws."""
    if row.dims is not None and basis.dim not in row.dims:
        allowed = ", ".join(map(str, row.dims))
        raise DimensionMismatch(f"this relation is defined for N = {allowed}, got dim {basis.dim}")
    plan = _TRY if row.plan is None else row.plan
    for rng in sampling.lane_chunks(seed, count, basis.dim):
        with np.errstate(divide="ignore", invalid="ignore"):  # only bad rows divide by 0
            drawn = (_appendix_c_lanes(rng, basis) if row.plan is None
                     else sampling.draw_batches(row.plan, rng, basis))
            _build(plan, drawn, basis)
            values, bad = None, np.logical_or.reduce([d.bad for d in drawn])
            if row.check is not None:
                values, failed = _lane_values(
                    _call(row.shared, row, plan, drawn, basis=basis, index=rng.streams, **given)
                )
                bad |= failed
        if bad.any():
            first = int(rng.streams[bad.argmax()])
            _sample(row, basis, seed, first, **given)
            raise NumericsError(
                f"sample {first} (stream {first}): a lane check failed that the scalar checks pass"
            )
        yield rng, drawn, values
        del drawn, values  # freed before the next chunk draws


def iter_states(cfg: sampling.SampleConfig) -> Iterator[bloch.QuantumState]:
    """Yield the configured states one by one; sample i uses stream i.

    Each is ``sampling.draw_state``'s state for its stream, bit for bit,
    drawn on lanes a chunk at a time (``chunks``) and wrapped without
    running the checks again (``bloch.batch_states``); its arrays are
    read-only views of its chunk's.  A state that fails a check raises
    what its stream's ``draw_state`` raises, and the states before it in
    its chunk are not yielded: no draw fails unless a check is made
    stricter than it is, so yielding part of a chunk would add a path to
    ``chunks`` that nothing else needs."""
    row = Relation(None, (cfg.kind,), None)
    for _, (states,), _ in chunks(row, sun_basis.basis_for(cfg.dim), cfg.seed, cfg.count):
        yield from bloch.batch_states(states)


def _verdicts(relation: str, dim: int, samples: int, seed: int, theta_ab: float):
    """Yield the margins of every check, a chunk's at a time as a flat
    array, in stream order."""
    basis = sun_basis.basis_for(dim)
    for _, _, margins in chunks(RELATIONS[relation], basis, seed, samples, theta_ab=theta_ab):
        del _  # the chunk's draws, freed before the next chunk draws
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
