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
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

# substream purpose tags (stable; part of the reproducibility contract)
STREAM_NOISE = 1
STREAM_COMM_DELAY = 2
STREAM_FEEDBACK_DELAY = 3
STREAM_NOISE_AGGREGATE = 4  # independent-draw mode only


@functools.lru_cache(maxsize=256)
def _keyed_stream(seed: int, purpose: int) -> tuple[np.random.Generator, dict]:
    """(seed, purpose)'s Philox generator and the state ``substream`` sets."""
    # Python-int lists, not uint64 arrays: the state setter converts an array
    # one numpy scalar at a time, about three times slower than a list
    key = np.random.SeedSequence([seed, purpose]).generate_state(2, np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key.tolist()},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
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
    """Laplace scale sigma = Delta / epsilon of a step."""
    if delta_t <= 0:
        raise ValueError(f"sensitivity must be positive, got {delta_t}")
    if epsilon_t <= 0:
        raise ValueError(f"per-step epsilon must be positive, got {epsilon_t}")
    return delta_t / epsilon_t


def sample_noise(sigma: float, shape, rng: np.random.Generator) -> np.ndarray:
    """An array of the given shape (an int or a tuple) of iid draws from the
    zero-mean Laplace density (1/2s) exp(-|z|/s).
    """
    if not 0 < sigma < math.inf:  # one comparison: this runs every noised round
        raise ValueError(f"Laplace scale must be finite and > 0, got {sigma}")
    return rng.laplace(0.0, sigma, size=shape)


def _positive_finite(value) -> bool:
    """True for a real number (not a bool) that is finite and > 0."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and value > 0 and math.isfinite(value))


@dataclass(frozen=True)
class NoiseConfig:
    """How (and whether) exchanged parameters are randomized.

    mode:             "epsilon" (fixed per-step epsilon), "sigma" (fixed
                      Laplace scale), or "off".
    sensitivity_mode: "manual" uses ``delta`` as Delta_t; "analytic" computes
                      2*L*theta*sqrt(m) with theta measured from a pre-run of
                      Y(t) over the horizon when a ``RunConfig`` is built,
                      which keeps (Delta, sigma) for every run of it.
    shared_draw:      one noise vector n_i(t) added to both the dual variable
                      and the aggregate estimate (the algorithm's literal
                      form); False draws independently for the aggregate.
                      A shared draw cancels in b~ - v~ = b - v (up to rounding);
                      Delta / sigma prices the dual update only.
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
            self._sigma(self.delta)

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def _sigma(self, delta_t: float) -> float:
        """The Laplace scale at sensitivity Delta, once it and Delta / sigma are finite and > 0."""
        sigma = sigma_for(delta_t, self.epsilon) if self.mode == "epsilon" else float(self.sigma)
        if not (_positive_finite(sigma) and _positive_finite(delta_t / sigma)):
            raise ValueError(f"Delta = {delta_t:g}, sigma = {sigma:g}: "
                             "sigma and Delta / sigma must be finite and > 0")
        return sigma

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
    """A run's privacy loss under basic sequential composition.

    Every round of a run noises its parameters at the one sensitivity Delta
    and Laplace scale sigma fixed when its ``RunConfig`` is built, so the run is
    recorded once, as (rounds, Delta, sigma), and epsilon_hat is
    rounds * (Delta / sigma): the correctly rounded total of the per-round
    losses Delta / sigma, as their math.fsum is.
    """

    rounds: int = 0
    delta: float = 0.0
    sigma: float = 0.0

    def record(self, rounds: int, delta: float, sigma: float) -> None:
        if not (_positive_finite(delta) and _positive_finite(sigma)):
            raise ValueError(f"ledger entries need finite delta and sigma > 0, got {delta} and {sigma}")
        self.rounds, self.delta, self.sigma = int(rounds), float(delta), float(sigma)

    @property
    def epsilon_hat(self) -> float:
        return self.rounds * (self.delta / self.sigma) if self.rounds else 0.0

    @property
    def records(self) -> list[tuple[int, float, float, float]]:
        """(t, Delta, sigma, epsilon) of every recorded round t."""
        return [(t, self.delta, self.sigma, self.delta / self.sigma) for t in range(self.rounds)]

    def entries(self) -> list[dict]:
        """The summary's ledger: the run's entry, none when it noised no round."""
        if not self.rounds:
            return []
        return [{"rounds": self.rounds, "delta": self.delta, "sigma": self.sigma,
                 "epsilon": self.delta / self.sigma}]
