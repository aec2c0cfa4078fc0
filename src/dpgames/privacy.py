"""Laplace mechanism, sensitivity bound, and cumulative privacy accounting.

All randomness in a run flows from one master seed through counter-based
Philox streams, the construction of Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3" (SC'11): each (seed, purpose) has one Philox
key, and round t's block is drawn from the counter range that starts at
[0, t, 0, 0]. Each round draws each purpose's whole block at once (the
(V, m) noise block, the (V, V) communication-delay matrix, the (V,)
feedback delays). Per-agent and per-edge values are views onto those
blocks, so draws are reproducible independent of iteration order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# substream purpose tags (stable; part of the reproducibility contract)
STREAM_NOISE = 1
STREAM_COMM_DELAY = 2
STREAM_FEEDBACK_DELAY = 3
STREAM_NOISE_AGGREGATE = 4  # independent-draw mode only


class LedgerError(ValueError):
    """Raised on double-recording a step in the privacy ledger."""


@functools.lru_cache(maxsize=256)
def _keyed_stream(seed: int, purpose: int) -> tuple[np.random.Generator, dict]:
    """(seed, purpose)'s Philox generator and the state ``substream`` sets."""
    key = np.random.SeedSequence([seed, purpose]).generate_state(2, np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": key},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(np.random.Philox(key=key)), state


def substream(seed: int, purpose: int, t: int) -> np.random.Generator:
    """Generator for round t of the stream (seed, purpose): Philox keyed by
    (seed, purpose), its counter set to [0, t, 0, 0], so round t owns 2^64
    blocks of its own.

    The generator is shared by every call with the same (seed, purpose) and
    is valid only until the next such call: draw the round's block at once.
    """
    rng, state = _keyed_stream(int(seed), int(purpose))
    state["state"]["counter"][1] = t
    rng.bit_generator.state = state
    return rng


def sensitivity_bound(L: float, theta: float, m: int) -> float:
    """Analytic l1-sensitivity bound 2 * L * theta * sqrt(m) of one dual update.

    theta is 1 / min y_ii observed over a validation horizon, so theta >= 1.
    """
    if L <= 0:
        raise ValueError(f"gradient bound L must be positive, got {L}")
    if theta < 1:
        raise ValueError(f"theta must be >= 1 (it is 1/min y_ii), got {theta}")
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    return 2.0 * L * theta * math.sqrt(m)


def sigma_for(delta_t: float, epsilon_t: float) -> float:
    """Laplace scale sigma_t = Delta_t / epsilon_t."""
    if delta_t <= 0:
        raise ValueError(f"sensitivity must be positive, got {delta_t}")
    if epsilon_t <= 0:
        raise ValueError(f"per-step epsilon must be positive, got {epsilon_t}")
    return delta_t / epsilon_t


def sample_noise(sigma: float, shape, rng: np.random.Generator) -> np.ndarray:
    """An array of the given shape (an int or a tuple) of iid draws from the
    zero-mean Laplace density (1/2s) exp(-|z|/s).
    """
    if sigma <= 0:
        raise ValueError(f"Laplace scale must be positive, got {sigma}")
    return rng.laplace(0.0, sigma, size=shape)


def density_ratio_check(b: np.ndarray, b_prime: np.ndarray, sigma: float,
                        probes: np.ndarray) -> float:
    """Max |log density ratio| of Laplace(b, sigma) vs Laplace(b', sigma) over
    the probe points.

    The analytic bound is ||b - b'||_1 / sigma; the returned maximum never
    exceeds it, which is the pointwise epsilon-DP witness.
    """
    if sigma <= 0:
        raise ValueError(f"Laplace scale must be positive, got {sigma}")
    b = np.atleast_1d(np.asarray(b, float))
    bp = np.atleast_1d(np.asarray(b_prime, float))
    pts = np.atleast_2d(np.asarray(probes, float))
    log_ratio = (np.abs(pts - bp[None, :]).sum(axis=1)
                 - np.abs(pts - b[None, :]).sum(axis=1)) / sigma
    return float(np.abs(log_ratio).max())


def _positive_finite(value) -> bool:
    """False for None, bools, NaN, infinities and values <= 0."""
    return value is not None and not isinstance(value, bool) and value > 0 and math.isfinite(value)


@dataclass(frozen=True)
class NoiseConfig:
    """How (and whether) exchanged parameters are randomized.

    mode:             "epsilon" (fixed per-step epsilon), "sigma" (fixed
                      Laplace scale), or "off".
    sensitivity_mode: "manual" uses ``delta`` as Delta_t; "analytic" computes
                      2*L*theta*sqrt(m) with theta measured from a pre-run of
                      Y(t) over the horizon.
    shared_draw:      one noise vector n_i(t) added to both the dual variable
                      and the aggregate estimate (the algorithm's literal
                      form); False draws independently for the aggregate.
    """

    mode: str = "off"
    epsilon: Optional[float] = None
    sigma: Optional[float] = None
    sensitivity_mode: str = "manual"
    delta: Optional[float] = None
    shared_draw: bool = True

    def __post_init__(self):
        if self.mode not in ("off", "epsilon", "sigma"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.mode == "epsilon" and not _positive_finite(self.epsilon):
            raise ValueError(f"epsilon mode needs a finite epsilon > 0, got {self.epsilon!r}")
        if self.mode == "sigma" and not _positive_finite(self.sigma):
            raise ValueError(f"sigma mode needs a finite sigma > 0, got {self.sigma!r}")
        if self.sensitivity_mode not in ("manual", "analytic"):
            raise ValueError(f"unknown sensitivity mode {self.sensitivity_mode!r}")
        if not isinstance(self.shared_draw, bool):
            raise TypeError(f"shared_draw must be true or false, got {self.shared_draw!r}")
        if self.mode != "off" and self.sensitivity_mode == "manual":
            if not _positive_finite(self.delta):
                raise ValueError(f"manual sensitivity needs a finite delta > 0, got {self.delta!r}")

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def resolve(self, delta_t: float) -> tuple[float, float]:
        """(delta_t, sigma_t) for a step, given the resolved sensitivity."""
        if not self.enabled:
            raise ValueError("noise is disabled")
        if self.mode == "epsilon":
            return delta_t, sigma_for(delta_t, self.epsilon)
        return delta_t, float(self.sigma)

    @staticmethod
    def off() -> "NoiseConfig":
        return NoiseConfig("off")

    @staticmethod
    def fixed_epsilon(epsilon: float, delta: float = 1.0, *,
                      sensitivity_mode: str = "manual",
                      shared_draw: bool = True) -> "NoiseConfig":
        return NoiseConfig("epsilon", epsilon=epsilon, delta=delta,
                           sensitivity_mode=sensitivity_mode, shared_draw=shared_draw)


@dataclass
class PrivacyLedger:
    """Per-step (t, Delta_t, sigma_t, eps_t) records and the running total.

    epsilon_hat is sum_t Delta_t / sigma_t, accumulated with math.fsum so the
    reported total is the correctly rounded sum of the recorded per-step
    losses (recomputing from the records is bit-identical).
    """

    records: list[tuple[int, float, float, float]] = field(default_factory=list)
    _seen: set[int] = field(default_factory=set, repr=False)

    def record(self, t: int, delta_t: float, sigma_t: float) -> None:
        if t in self._seen:
            raise LedgerError(f"step {t} already recorded in the privacy ledger")
        if delta_t <= 0 or sigma_t <= 0:
            raise ValueError("ledger entries need positive delta and sigma")
        self._seen.add(t)
        self.records.append((t, float(delta_t), float(sigma_t), delta_t / sigma_t))

    @property
    def epsilon_hat(self) -> float:
        return math.fsum(r[3] for r in self.records)

    def to_rows(self) -> list[dict]:
        return [{"t": t, "delta": d, "sigma": s, "epsilon": e}
                for t, d, s, e in self.records]
