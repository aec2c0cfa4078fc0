import math
import re
from dataclasses import replace

import numpy as np
import pytest

import dpgames as dp
from dpgames.cli import PRESETS, _apply_axis, config_from_dict, config_to_dict, preset
from dpgames.privacy import (STREAM_COMM_DELAY, STREAM_FEEDBACK_DELAY, STREAM_NOISE,
                             STREAM_NOISE_AGGREGATE, NoiseConfig, PrivacyLedger, substream)

from conftest import density_ratio_check

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


_NOT_POSITIVE_FINITE = [math.inf, -math.inf, math.nan, 0.0, -1.0]


def test_sample_noise_needs_positive_scale():
    for sigma in _NOT_POSITIVE_FINITE:
        with pytest.raises(ValueError, match=f"Laplace scale must be finite and > 0, got {sigma}"):
            dp.sample_noise(sigma, 3, np.random.default_rng(0))


@pytest.mark.parametrize("value", _NOT_POSITIVE_FINITE)
@pytest.mark.parametrize("which", ["delta", "sigma"])
def test_ledger_rejects_a_delta_or_sigma_that_is_not_finite_and_positive(which, value):
    ledger, fields = PrivacyLedger(), {"delta": 2.0, "sigma": 4.0, which: value}
    with pytest.raises(ValueError, match=f"need finite delta and sigma > 0, got {fields['delta']} "
                                         f"and {fields['sigma']}"):
        ledger.record(3, **fields)
    assert (ledger.rounds, ledger.epsilon_hat) == (0, 0.0)  # nothing recorded


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
    (seed, purpose) seed sequence, counter [0, t, 0, 0]. The counter is a
    uint64 array: numpy reads a list holding t >= 2^63 as float64 and rounds it."""
    key = np.random.SeedSequence([seed, purpose]).generate_state(2, np.uint64)
    counter = np.array([0, t, 0, 0], np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


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


@pytest.mark.parametrize("seed", [0, 7, 2 ** 63 - 1])
def test_substream_raw_words_match_a_fresh_philox_over_the_whole_counter_range(seed):
    # the state substream sets holds Python ints; the words must be a fresh
    # generator's up to the last round the 64-bit counter word can name
    for purpose in PURPOSES:
        for t in (0, 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1):
            words = substream(seed, purpose, t).bit_generator.random_raw(9)
            fresh = _philox_reference(seed, purpose, t).bit_generator.random_raw(9)
            assert np.array_equal(words, fresh), (purpose, t)
    with pytest.raises(OverflowError):
        substream(seed, STREAM_NOISE, -1)
    # a rejected round leaves the stream usable
    assert np.array_equal(substream(seed, STREAM_NOISE, 3).bit_generator.random_raw(4),
                          _philox_reference(seed, STREAM_NOISE, 3).bit_generator.random_raw(4))


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
    ledger.record(100, 1.0, dp.sigma_for(1.0, 0.2))
    assert ledger.epsilon_hat == 20.0  # exactly


def test_ledger_holds_one_entry_per_run():
    ledger = PrivacyLedger()
    assert (ledger.epsilon_hat, ledger.records, ledger.entries()) == (0.0, [], [])
    ledger.record(3, 2.0, 4.0)
    assert ledger.records == [(t, 2.0, 4.0, 0.5) for t in range(3)]
    assert ledger.entries() == [{"rounds": 3, "delta": 2.0, "sigma": 4.0, "epsilon": 0.5}]
    assert ledger.epsilon_hat == 1.5
    ledger.record(0, 2.0, 4.0)  # a run of no rounds spends nothing
    assert (ledger.epsilon_hat, ledger.records, ledger.entries()) == (0.0, [], [])
    with pytest.raises(ValueError):
        ledger.record(3, 0.0, 4.0)


def _fsum_of_rounds(ledger):
    """The total as a sum of per-round losses: math.fsum of T terms Delta / sigma."""
    return math.fsum(epsilon for _, _, _, epsilon in ledger.records)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_epsilon_hat_is_the_correctly_rounded_sum_of_per_round_losses(name):
    cfg = replace(preset(name), horizon=2000)
    ledger = dp.run(cfg).ledger
    assert ledger.rounds == (2000 if cfg.noise.enabled else 0)
    assert ledger.epsilon_hat == _fsum_of_rounds(ledger)


@pytest.mark.parametrize("mode", ["manual", "analytic"])
@pytest.mark.parametrize("epsilon", [0.1, 0.3, 1 / 3, 0.7])
def test_sweep_epsilon_member_total_is_the_sum_of_per_round_losses(epsilon, mode):
    base = preset("fig7-random-delays-private")
    noise = replace(base.noise, sensitivity_mode=mode, delta=2.5 if mode == "manual" else None)
    member = _apply_axis(replace(base, noise=noise), "epsilon", epsilon)
    ledger = dp.run(member).ledger
    assert ledger.rounds == base.horizon
    assert ledger.epsilon_hat == _fsum_of_rounds(ledger)


def test_density_ratio_scalar_case():
    rng = np.random.default_rng(4)
    probes = rng.normal(0.0, 10.0, size=(5000, 1))
    worst = density_ratio_check([0.0], [1.0], 5.0, probes)
    assert worst <= 0.2 + 1e-12
    # the bound is attained in the tails
    tail_probes = np.array([[50.0], [-50.0]])
    assert density_ratio_check([0.0], [1.0], 5.0, tail_probes) == pytest.approx(0.2)


def test_density_ratio_identical_centers_is_zero():
    probes = np.linspace(-5, 5, 101)[:, None]
    assert density_ratio_check([0.7], [0.7], 3.0, probes) == 0.0


def test_density_ratio_l1_bound_in_two_dims():
    rng = np.random.default_rng(9)
    probes = rng.normal(0.0, 8.0, size=(5000, 2))
    worst = density_ratio_check([0.0, 0.0], [1.0, 1.0], 5.0, probes)
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
    assert replace(preset("fig2-baseline"), noise=cfg)._scale == (1.0, 5.0)  # (Delta, sigma)
    assert not NoiseConfig.off().enabled
    assert replace(preset("fig2-baseline"), noise=NoiseConfig.off())._scale is None


@pytest.mark.parametrize("call, error, message", [
    (lambda: dp.sensitivity_bound(1.0, 1.0, 0), ValueError, "dimension m must be >= 1, got 0"),
    (lambda: dp.sigma_for(0, 1), ValueError, "sensitivity must be positive, got 0"),
    (lambda: NoiseConfig("laplace"), ValueError, "unknown noise mode 'laplace'"),
    (lambda: NoiseConfig("epsilon", epsilon=0.2, delta=1.0, sensitivity_mode="exact"), ValueError,
     "unknown sensitivity mode 'exact'"),
    (lambda: NoiseConfig("epsilon", epsilon=0.2, delta=1.0, shared_draw=1), TypeError,
     "shared_draw must be true or false, got 1"),
], ids=["m-0", "delta-0", "unknown-mode", "unknown-sensitivity", "shared-draw-int"])
def test_each_privacy_fault_names_itself(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("mode, scale, delta", [
    ("sigma", 1e-300, 1e300),    # Delta / sigma overflows
    ("epsilon", 1e-300, 1e10),   # sigma = Delta / epsilon overflows
    ("sigma", 1e300, 1e-300),    # Delta / sigma underflows: a noised run that spends nothing
    ("epsilon", 1e300, 1e-300),  # sigma underflows to 0
])
def test_manual_noise_config_rejects_scales_outside_the_floats(mode, scale, delta, monkeypatch):
    with pytest.raises(ValueError, match=r"sigma and Delta / sigma must be finite and > 0"):
        NoiseConfig(mode, delta=delta, **{mode: scale})
    # analytic sensitivity resolves Delta, and checks it, when a RunConfig is built
    noise = NoiseConfig(mode, sensitivity_mode="analytic", **{mode: scale})
    monkeypatch.setattr(dp.engine, "sensitivity_bound", lambda L, theta, m: delta)
    with pytest.raises(dp.engine.ConfigError) as e:
        replace(preset("fig2-baseline"), horizon=5, noise=noise)
    assert len(e.value.errors) == 1 and re.fullmatch(
        r"privacy: Delta = .*: sigma and Delta / sigma must be finite and > 0", e.value.errors[0])


def test_noise_config_round_trips_through_the_config_file():
    for noise in (NoiseConfig.off(),
                  NoiseConfig.fixed_epsilon(0.2, delta=1.0),
                  NoiseConfig("sigma", sigma=3.0, delta=2.0, shared_draw=False)):
        cfg = replace(preset("fig2-baseline"), noise=noise)
        assert config_from_dict(config_to_dict(cfg)).noise == noise
