import numpy as np
import pytest

from blochvar import SampleConfig, Xoshiro256pp, completely_mixed, draw_observable, iter_states
from blochvar import sampling
from blochvar.sampling import XoshiroLanes, draw_batches, draw_mixed, draw_pure, draw_state


def _stack_bytes(states):
    return np.concatenate([s.p for s in states]).tobytes() + b"".join(
        s.rho.array.tobytes() for s in states
    )


def test_rng_reference_stream():
    # First outputs of stream 0, seed 0; frozen from the pinned algorithm
    # (splitmix64 seeding + xoshiro256++) so regressions change bytes.
    rng = Xoshiro256pp(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        5987356902031041503,
        7051070477665621255,
        6633766593972829180,
    ]
    rng = Xoshiro256pp(42, stream=7)
    assert [rng.next_u64() for _ in range(2)] == [
        5994670429110572069,
        15977450795183382216,
    ]


def test_rng_streams_differ_and_reproduce():
    def uniforms(stream):
        rng = Xoshiro256pp(42, stream=stream)
        return [rng.uniform() for _ in range(8)]

    a1 = uniforms(0)
    a2 = uniforms(0)
    b = uniforms(1)
    assert a1 == a2
    assert a1 != b


def test_rng_takes_numpy_integers():
    # A lane's stream index is a numpy integer; so may a seed be.
    rng = Xoshiro256pp(np.uint64(11), np.int64(3))
    ref = Xoshiro256pp(11, 3)
    assert [rng.next_u64() for _ in range(4)] == [ref.next_u64() for _ in range(4)]
    top = Xoshiro256pp(np.uint64(2**64 - 1), np.uint64(2**40))
    ref = Xoshiro256pp(2**64 - 1, 2**40)
    assert top.next_u64() == ref.next_u64()
    with pytest.raises(TypeError):
        Xoshiro256pp(11.0)
    with pytest.raises(TypeError):
        Xoshiro256pp(11, stream=3.0)
    with pytest.raises(ValueError, match="stream index must be nonnegative"):
        Xoshiro256pp(11, stream=np.int64(-1))


def test_lanes_take_numpy_integers_and_reject_floats():
    # As the scalar generator does: a float seed or stream would
    # otherwise draw the stream of its truncation.
    lanes = XoshiroLanes(np.uint64(2**64 - 1), np.array([3, 2**40], dtype=np.uint64))
    refs = [Xoshiro256pp(2**64 - 1, k) for k in (3, 2**40)]
    assert lanes.next_u64().tolist() == [ref.next_u64() for ref in refs]
    lanes = XoshiroLanes(np.int64(11), [np.int32(3)])
    assert lanes.next_u64().tolist() == [Xoshiro256pp(11, 3).next_u64()]
    with pytest.raises(TypeError):
        XoshiroLanes(1.5, [0])
    with pytest.raises(TypeError):
        XoshiroLanes(11, [0.5])
    with pytest.raises(TypeError):
        XoshiroLanes(11, np.array([0.0, 1.0]))
    with pytest.raises(TypeError):
        XoshiroLanes(11, [True, False])


@pytest.mark.parametrize("zero_state", [False, True])
def test_lanes_seed_the_words_of_each_stream(monkeypatch, zero_state):
    # XoshiroLanes mixes the four words of every lane in one pass; each
    # lane's state is its stream's.  With the splitmix64 mixer patched to
    # give 0, every state is the all-zero one, which both replace.
    if zero_state:
        monkeypatch.setattr(sampling, "_sm64", lambda z: z * 0)
    streams = [0, 1, 2**40, 2**62]
    for seed in (0, 2**64 - 1):
        lanes = XoshiroLanes(seed, streams)
        assert lanes._s.dtype == np.uint64 and lanes._s.shape == (4, len(streams))
        for k, stream in enumerate(streams):
            rng = Xoshiro256pp(seed, stream)
            words = [rng._s0, rng._s1, rng._s2, rng._s3]
            assert lanes._s[:, k].tolist() == words
            if zero_state:
                assert words == [sampling._SM_GAMMA, 0, 0, 0]


def test_gaussians_consume_whole_pairs():
    r1 = Xoshiro256pp(5)
    r2 = Xoshiro256pp(5)
    odd = r1.gaussians(3)
    even = r2.gaussians(4)
    assert odd.shape == (3,)
    assert np.array_equal(odd, even[:3])


def test_sample_pure_determinism(basis2):
    cfg = SampleConfig(seed=42, dim=2, count=50, kind="haar_pure")
    assert _stack_bytes(list(iter_states(cfg))) == _stack_bytes(list(iter_states(cfg)))


def test_sample_prefix_stability():
    short = SampleConfig(seed=9, dim=2, count=20, kind="hs_mixed")
    long = SampleConfig(seed=9, dim=2, count=40, kind="hs_mixed")
    a = list(iter_states(short))
    b = list(iter_states(long))
    assert _stack_bytes(a) == _stack_bytes(b[:20])


@pytest.mark.parametrize("n", [2, 3])
def test_pure_states_have_pure_norm(n):
    cfg = SampleConfig(seed=1, dim=n, count=300, kind="haar_pure")
    target = 2.0 * (1.0 - 1.0 / n)
    for state in iter_states(cfg):
        assert state.purity == pytest.approx(target, abs=1e-10)


def test_haar_mean_vector_is_small(basis2):
    cfg = SampleConfig(seed=42, dim=2, count=10000, kind="haar_pure")
    mean = np.mean([s.p for s in iter_states(cfg)], axis=0)
    assert np.abs(mean).max() < 0.05


def test_full_rank_mixed_stays_interior(basis4):
    cfg = SampleConfig(seed=4, dim=4, count=200, kind="hs_mixed")
    cap = 2.0 * (1.0 - 1.0 / 4.0)
    for state in iter_states(cfg):
        assert 0.0 < state.purity < cap


def test_mean_purity_stable_across_seeds(basis2):
    means = []
    for seed in (1, 2, 3):
        cfg = SampleConfig(seed=seed, dim=2, count=10000, kind="hs_mixed")
        means.append(np.mean([s.purity for s in iter_states(cfg)]))
    assert max(means) - min(means) < 0.02


def test_observable_isotropy(basis2):
    vecs = np.array(
        [np.asarray(draw_observable(Xoshiro256pp(6, stream=i), basis2).a) for i in range(10000)]
    )
    assert np.abs(vecs.mean(axis=0)).max() < 0.05
    cov = vecs.T @ vecs / len(vecs)
    assert np.abs(cov - np.eye(3) / 3.0).max() < 0.02


def test_observable_contract(basis3):
    obs = draw_observable(Xoshiro256pp(17), basis3)
    assert abs(np.trace(obs.matrix.array)) < 1e-13
    assert obs.norm2 == pytest.approx(1.0, abs=1e-12)
    again = draw_observable(Xoshiro256pp(17), basis3)
    assert np.array_equal(np.asarray(obs.a), np.asarray(again.a))


@pytest.mark.parametrize("kind", ["haar_pure", "hs_mixed", "alternating", "maximally_mixed"])
def test_draw_state_follows_its_kind(basis2, kind):
    streams = np.arange(10)
    (batch,) = draw_batches((kind,), XoshiroLanes(7, streams), basis2)
    assert not batch.bad.any()
    for i in streams.tolist():
        if kind == "maximally_mixed":
            expected = completely_mixed(basis2)
        else:
            pure = kind == "haar_pure" or (kind == "alternating" and i % 2 == 0)
            expected = (draw_pure if pure else draw_mixed)(Xoshiro256pp(7, stream=i), basis2)
        state = draw_state(kind, Xoshiro256pp(7, stream=i), basis2, i)
        for rho, p, purity in [
            (state.rho.array, state.p, state.purity),
            (batch.rho[i], batch.p[i], batch.purity[i]),
        ]:
            assert np.array_equal(rho, expected.rho.array)
            assert np.array_equal(p, expected.p)
            assert purity == expected.purity


def test_draw_state_rejects_unknown_kinds(basis2):
    with pytest.raises(ValueError):
        draw_state("bloch_shell", Xoshiro256pp(1), basis2, 0)
    with pytest.raises(ValueError):
        draw_batches(("bloch_shell",), XoshiroLanes(1, [0]), basis2)


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(seed=1, dim=1, count=5, kind="haar_pure")
    with pytest.raises(ValueError):
        SampleConfig(seed=1, dim=2, count=0, kind="haar_pure")
    with pytest.raises(ValueError):
        SampleConfig(seed=1, dim=2, count=5, kind="nope")
    with pytest.raises(ValueError):
        SampleConfig(seed=1, dim=2, count=5, kind="bloch_shell")
    with pytest.raises(ValueError):
        SampleConfig(seed=-1, dim=2, count=5, kind="haar_pure")
    # At construction, not in a draw: as in Xoshiro256pp, a float seed,
    # dim or count is refused, not truncated.
    with pytest.raises(TypeError):
        SampleConfig(seed=1.5, dim=2, count=5, kind="haar_pure")
    with pytest.raises(TypeError):
        SampleConfig(seed=1, dim=3.0, count=2, kind="haar_pure")
    with pytest.raises(TypeError):
        SampleConfig(seed=1, dim=2, count=3.0, kind="haar_pure")


def test_million_draws_all_pass_invariants():
    # QuantumState construction enforces every state invariant, so simply
    # materializing the draws is the check.  Spread across kinds and dims.
    plans = [
        SampleConfig(seed=100, dim=2, count=400000, kind="haar_pure"),
        SampleConfig(seed=101, dim=2, count=400000, kind="hs_mixed"),
        SampleConfig(seed=102, dim=3, count=100000, kind="hs_mixed"),
    ]
    total = 0
    for cfg in plans:
        for state in iter_states(cfg):
            total += 1
    assert total == 900_000
