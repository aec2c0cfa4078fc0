import math
from dataclasses import replace

import numpy as np
import pytest

import dpgames as dp
from dpgames.cli import config_from_dict, config_to_dict, preset
from dpgames.privacy import (LedgerError, STREAM_COMM_DELAY, STREAM_FEEDBACK_DELAY, STREAM_NOISE,
                             STREAM_NOISE_AGGREGATE, NoiseConfig, PrivacyLedger, substream)

PURPOSES = (STREAM_NOISE, STREAM_COMM_DELAY, STREAM_FEEDBACK_DELAY, STREAM_NOISE_AGGREGATE)


def test_sensitivity_bound_values():
    assert dp.sensitivity_bound(1.0, 1.0, 1) == 2.0
    assert dp.sensitivity_bound(1.0, 2.0, 4) == 8.0
    with pytest.raises(ValueError):
        dp.sensitivity_bound(-1.0, 1.0, 1)
    with pytest.raises(ValueError):
        dp.sensitivity_bound(1.0, 0.5, 1)


def test_sigma_for_values():
    assert dp.sigma_for(1.0, 0.2) == 5.0
    assert dp.sigma_for(1.0, 0.1) == 10.0
    assert dp.sigma_for(0.3, 0.3) == 1.0
    with pytest.raises(ValueError):
        dp.sigma_for(1.0, 0.0)


def test_laplace_moments():
    rng = np.random.default_rng(2)
    draws = dp.sample_noise(5.0, 10 ** 6, rng)
    assert abs(draws.mean()) < 0.05
    assert draws.var() == pytest.approx(2 * 5.0 ** 2, rel=0.02)


def test_sample_noise_needs_positive_scale():
    with pytest.raises(ValueError):
        dp.sample_noise(0.0, 3, np.random.default_rng(0))


def test_noise_streams_are_deterministic_and_disjoint():
    # one (V, m) block per (purpose, round)
    a = dp.sample_noise(5.0, (4, 2), substream(42, STREAM_NOISE, 10))
    b = dp.sample_noise(5.0, (4, 2), substream(42, STREAM_NOISE, 10))
    c = dp.sample_noise(5.0, (4, 2), substream(42, STREAM_NOISE_AGGREGATE, 10))
    d = dp.sample_noise(5.0, (4, 2), substream(42, STREAM_NOISE, 11))
    assert a.shape == (4, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert dp.sample_noise(5.0, 3, substream(42, STREAM_NOISE, 10)).shape == (3,)


def _philox_reference(seed, purpose, t):
    """Round t of (seed, purpose), built from scratch: Philox keyed by the
    (seed, purpose) seed sequence, counter [0, t, 0, 0]."""
    key = np.random.SeedSequence([seed, purpose]).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, t, 0, 0]))


def _block(rng):
    # 25 bounded integers are 25 32-bit draws, which leave half a 64-bit
    # word buffered in the bit generator; then doubles, as the noise draws
    return np.concatenate((rng.integers(0, 11, size=25), rng.laplace(0.0, 5.0, size=6)))


@pytest.mark.parametrize("seed", [0, 42, 2 ** 40 + 3])
def test_substream_is_philox_keyed_by_seed_and_purpose_with_the_round_as_counter(seed):
    for purpose in PURPOSES:
        for t in (0, 1, 7, 199, 2 ** 33):
            assert np.array_equal(_block(substream(seed, purpose, t)),
                                  _block(_philox_reference(seed, purpose, t)))


def test_substream_blocks_do_not_depend_on_call_order():
    keys = [(seed, purpose, t) for seed in (42, 43) for purpose in PURPOSES for t in range(12)]
    expected = {key: _block(_philox_reference(*key)) for key in keys}
    in_order = {key: _block(substream(*key)) for key in keys}
    # shuffled rounds with purposes and seeds interleaved
    order = np.random.default_rng(3).permutation(len(keys))
    shuffled = {keys[k]: _block(substream(*keys[k])) for k in order}
    for key in keys:
        assert np.array_equal(in_order[key], expected[key])
        assert np.array_equal(shuffled[key], expected[key])


def test_seeds_beyond_64_bits_have_their_own_streams():
    assert not np.array_equal(_block(substream(5, STREAM_NOISE, 0)),
                              _block(substream(2 ** 64 + 5, STREAM_NOISE, 0)))


def test_ledger_constant_epsilon_is_exact():
    ledger = PrivacyLedger()
    for t in range(100):
        ledger.record(t, 1.0, dp.sigma_for(1.0, 0.2))
    assert ledger.epsilon_hat == 20.0  # exactly


def test_ledger_single_and_mixed_steps():
    ledger = PrivacyLedger()
    ledger.record(0, 1.0, 5.0)
    assert ledger.epsilon_hat == pytest.approx(0.2, abs=1e-15)
    ledger.record(1, 2.0, 4.0)
    assert ledger.epsilon_hat == pytest.approx(0.7, abs=1e-15)


def test_ledger_recompute_is_bit_identical():
    ledger = PrivacyLedger()
    rng = np.random.default_rng(8)
    for t in range(257):
        ledger.record(t, float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.0, 9.0)))
    recomputed = math.fsum(row["delta"] / row["sigma"] for row in ledger.to_rows())
    assert recomputed == ledger.epsilon_hat


def test_ledger_rejects_duplicate_step():
    ledger = PrivacyLedger()
    ledger.record(3, 1.0, 5.0)
    with pytest.raises(LedgerError):
        ledger.record(3, 1.0, 5.0)


def test_density_ratio_scalar_case():
    rng = np.random.default_rng(4)
    probes = rng.normal(0.0, 10.0, size=(5000, 1))
    worst = dp.density_ratio_check([0.0], [1.0], 5.0, probes)
    assert worst <= 0.2 + 1e-12
    # the bound is attained in the tails
    tail_probes = np.array([[50.0], [-50.0]])
    assert dp.density_ratio_check([0.0], [1.0], 5.0, tail_probes) == pytest.approx(0.2)


def test_density_ratio_identical_centers_is_zero():
    probes = np.linspace(-5, 5, 101)[:, None]
    assert dp.density_ratio_check([0.7], [0.7], 3.0, probes) == 0.0


def test_density_ratio_l1_bound_in_two_dims():
    rng = np.random.default_rng(9)
    probes = rng.normal(0.0, 8.0, size=(5000, 2))
    worst = dp.density_ratio_check([0.0, 0.0], [1.0, 1.0], 5.0, probes)
    assert worst <= 0.4 + 1e-12


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig("epsilon")  # epsilon missing
    with pytest.raises(ValueError):
        NoiseConfig("epsilon", epsilon=0.2)  # manual sensitivity needs delta
    with pytest.raises(ValueError):
        NoiseConfig("sigma", sigma=-1.0, delta=1.0)
    for bad in (dict(epsilon=True, delta=1.0), dict(epsilon=0.2, delta=True)):
        with pytest.raises(ValueError):
            NoiseConfig("epsilon", **bad)  # a bool is not a number
    cfg = NoiseConfig.fixed_epsilon(0.2, delta=1.0)
    assert cfg.resolve(1.0) == (1.0, 5.0)
    assert not NoiseConfig.off().enabled


def test_noise_config_round_trips_through_the_config_file():
    for noise in (NoiseConfig.off(),
                  NoiseConfig.fixed_epsilon(0.2, delta=1.0),
                  NoiseConfig("sigma", sigma=3.0, delta=2.0, shared_draw=False)):
        cfg = replace(preset("fig2-baseline"), noise=noise)
        assert config_from_dict(config_to_dict(cfg)).noise == noise
