"""Discrete-time executor of the private, delay-tolerant dual-averaging loop.

Each step is a two-phase barrier: every agent first noises its dual variable
and aggregate estimate and sends both to its current out-neighbors, then every
agent folds in whatever arrives this step, adds its delayed compensated
gradient, projects, and updates its running average and aggregate estimate.
Self contributions use the raw, un-noised values and never incur delay.

Transport is an arrival ring of tau_max + 1 slots of shape (V, m): a message
sent by j to i at time s is weighted by W(s)[i, j] when it is sent and added
into the slot of round s + tau_ij(s), so at round t the slot t mod
(tau_max + 1) holds the arrival sum
sum_r [W(t-r)]_ij b~_j(t-r) I{tau_ij(t-r) = r}.

``run_augmented_reference`` re-executes the same arithmetic as a delay-free
system of V(1 + tau_max) nodes in which virtual relay chains carry the noised
snapshots; it serves as an independent oracle for the arrival ring.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .game import GameSpec, resolve_game
from .graph import DelaySchedule, GraphSchedule, augment, eigenvector_floor, validate_b_connectivity
from .privacy import (NoiseConfig, PrivacyLedger, sample_noise, sensitivity_bound,
                      substream, STREAM_NOISE, STREAM_NOISE_AGGREGATE)

Y_FLOOR = 1e-15


class DegeneracyError(RuntimeError):
    """y_ii collapsed to ~0: the schedule violates the self-loop requirement."""


class HistoryMissError(RuntimeError):
    """A delayed-gradient lookup requested a state outside the ring buffer."""


def project(b: np.ndarray, eta: float, box_lo, box_hi) -> np.ndarray:
    """Regularized projection onto a box with the Euclidean regularizer
    phi(x) = ||x||^2 / 2: the exact minimizer of <b, x> + phi(x)/eta is the
    coordinatewise clamp of -eta * b.
    """
    if eta <= 0:
        raise ValueError(f"step size must be positive, got {eta}")
    return np.clip(-eta * np.asarray(b, float), box_lo, box_hi)


def step_size(gamma: float, k: int) -> float:
    """eta(k) = gamma / sqrt(k + 1); the projection producing x(t+1) uses eta(t+1)."""
    return gamma / math.sqrt(k + 1.0)


@dataclass(frozen=True)
class AgentState:
    """Read-only snapshot of one agent, mainly for tests and debugging."""
    b: np.ndarray
    y: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    v: np.ndarray
    history_times: tuple[int, ...]


@dataclass
class RunConfig:
    """Everything a run needs; ``game`` may be a registered name or a GameSpec."""

    game: Union[str, GameSpec]
    graph: GraphSchedule
    delays: DelaySchedule = field(default_factory=DelaySchedule.none)
    noise: NoiseConfig = field(default_factory=NoiseConfig.off)
    horizon: int = 1
    gamma: float = 1.0
    x0: Optional[np.ndarray] = None  # (V, m); None means box midpoints
    seed: int = 0
    b_window: int = 1                # connectivity window for validation
    validate_connectivity: bool = False
    cold_start: str = "clamp"        # feedback index t - tau < 0: "clamp" to 0 or "zero" gradient
    run_id: str = "run"
    output: dict = field(default_factory=dict)  # sink preferences, consumed by the CLI

    def resolved_game(self) -> GameSpec:
        return resolve_game(self.game)

    def resolved_x0(self, game: GameSpec) -> np.ndarray:
        if self.x0 is None:
            return (game.box_lo + game.box_hi) / 2.0
        x0 = np.asarray(self.x0, dtype=float).reshape(game.num_agents, game.dim)
        return x0

    def validate(self) -> list[str]:
        """Itemized config errors (empty list when valid)."""
        errors = []
        try:
            game = self.resolved_game()
        except ValueError as e:
            return [str(e)]
        if self.graph.num_agents != game.num_agents:
            errors.append(f"graph has {self.graph.num_agents} agents, game has {game.num_agents}")
        if self.horizon < 0:
            errors.append(f"horizon must be >= 0, got {self.horizon}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            errors.append(f"gamma must be positive and finite, got {self.gamma}")
        if self.b_window < 1:
            errors.append(f"b_window must be >= 1, got {self.b_window}")
        if self.cold_start not in ("clamp", "zero"):
            errors.append(f"cold_start must be 'clamp' or 'zero', got {self.cold_start!r}")
        try:
            x0 = self.resolved_x0(game)
            # written as "inside" so that NaN entries count as outside
            inside = np.all((x0 >= game.box_lo - 1e-12) & (x0 <= game.box_hi + 1e-12), axis=1)
            if not inside.all():
                bad = np.nonzero(~inside)[0]
                errors.append(f"initial action(s) of agent(s) {bad.tolist()} outside their boxes")
        except ValueError as e:
            errors.append(f"bad initial actions: {e}")
        return errors


class World:
    """Mutable simulation state; ``step()`` advances one synchronous round."""

    def __init__(self, config: RunConfig, game: Optional[GameSpec] = None):
        errors = config.validate()
        if errors:
            raise ValueError("invalid run config: " + "; ".join(errors))
        self.cfg = config
        self.game = game if game is not None else config.resolved_game()
        self.graph = config.graph
        self.delays = config.delays.with_seed(config.seed)
        self.noise = config.noise
        V, m = self.game.num_agents, self.game.dim
        self.V, self.m = V, m

        if config.validate_connectivity and config.horizon >= config.b_window:
            report = validate_b_connectivity(self.graph, config.b_window, config.horizon)
            if not report.ok:
                raise ValueError(
                    f"schedule not strongly connected over window {report.first_violation}")

        self.t = 0
        self.b = np.zeros((V, m))
        self.x = config.resolved_x0(self.game).copy()
        for i in range(V):
            self.game.check_in_box(i, self.x[i])
        self.x_hat = self.x.copy()
        self.v = np.stack([self.game.psi(i, self.x[i]) for i in range(V)])
        self.Y = np.eye(V)
        self.history: dict[int, tuple[np.ndarray, np.ndarray]] = {0: (self.x.copy(), self.v.copy())}
        slots = self.delays.tau_max + 1
        self.ring_b = np.zeros((slots, V, m))
        self.ring_v = np.zeros((slots, V, m))
        self.ring_count = [0] * slots  # messages waiting in each slot
        self.ledger = PrivacyLedger()
        self.min_y_diag = 1.0
        self.messages_enqueued = 0
        self.messages_delivered = 0
        self.last_arrivals: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._delta_t: Optional[float] = None
        if self.noise.enabled:
            self._delta_t = self._resolve_sensitivity()

    def _resolve_sensitivity(self) -> float:
        if self.noise.sensitivity_mode == "manual":
            return float(self.noise.delta)
        floor = eigenvector_floor(self.graph, max(self.cfg.horizon, 1))
        return sensitivity_bound(self.game.L, 1.0 / floor, self.m)

    def draw_noise(self, i: int, t: int) -> tuple[np.ndarray, np.ndarray, float]:
        """(noise for dual, noise for aggregate, sigma_t); zeros when disabled."""
        if not self.noise.enabled:
            z = np.zeros(self.m)
            return z, z, 0.0
        _, sigma = self.noise.resolve(self._delta_t)
        n_b = sample_noise(sigma, self.m, substream(self.cfg.seed, STREAM_NOISE, i, t))
        if self.noise.shared_draw:
            return n_b, n_b, sigma
        n_v = sample_noise(sigma, self.m, substream(self.cfg.seed, STREAM_NOISE_AGGREGATE, i, t))
        return n_b, n_v, sigma

    def _noised(self, t: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Every agent's noised (b, v) snapshot at round t, and sigma_t."""
        b_tilde = np.empty((self.V, self.m))
        v_tilde = np.empty((self.V, self.m))
        sigma_t = 0.0
        for i in range(self.V):
            n_b, n_v, sigma_t = self.draw_noise(i, t)
            b_tilde[i] = self.b[i] + n_b
            v_tilde[i] = self.v[i] + n_v
        return b_tilde, v_tilde, sigma_t

    def delayed_gradient(self, i: int, t: int) -> np.ndarray:
        tau = self.delays.feedback_delay(i, t)
        s = t - tau
        if s < 0:
            if self.cfg.cold_start == "zero":
                return np.zeros(self.m)
            s = 0
        if s not in self.history:
            raise HistoryMissError(f"state at t={s} evicted (asked at t={t}, agent {i})")
        xs, vs = self.history[s]
        return self.game.local_gradient(i, s, xs[i], vs[i])

    def step(self) -> None:
        t = self.t
        V = self.V
        W = self.graph.weights_at(t)
        b_tilde, v_tilde, sigma_t = self._noised(t)

        # phase 1: add each message, weighted at send time, into the slot of
        # its arrival round; sender by sender, so every receiver's slot sums
        # in send order
        slots = len(self.ring_count)
        for sender in range(V):
            for receiver in range(V):
                if receiver != sender and W[receiver, sender] > 0:
                    k = (t + self.delays.comm_delay(receiver, sender, t)) % slots
                    self.ring_b[k, receiver] += W[receiver, sender] * b_tilde[sender]
                    self.ring_v[k, receiver] += W[receiver, sender] * v_tilde[sender]
                    self.ring_count[k] += 1
                    self.messages_enqueued += 1

        # phase 2: this round's slot holds everything arriving now
        k = t % slots
        sum_b, sum_v = self.ring_b[k].copy(), self.ring_v[k].copy()
        self.ring_b[k] = 0.0
        self.ring_v[k] = 0.0
        self.messages_delivered += self.ring_count[k]
        self.ring_count[k] = 0

        self._apply_updates(t, W, sum_b, sum_v, sigma_t)

    def _apply_updates(self, t: int, W: np.ndarray, sum_b: np.ndarray,
                       sum_v: np.ndarray, sigma_t: float) -> None:
        """Local part of a round: dual update with compensated delayed
        gradient, eigenvector recursion, projection, running average,
        aggregate-estimate tracking, ledger entry. Shared by the arrival
        ring and virtual-relay routes, which differ only in how the arrival
        sums are formed.
        """
        V = self.V
        game = self.game
        self.last_arrivals = (sum_b, sum_v)

        y_diag = np.diag(self.Y).copy()
        if y_diag.min() < Y_FLOOR:
            raise DegeneracyError(
                f"y_ii = {y_diag.min():.3e} at t={t}; self-loop structure violated")
        self.min_y_diag = min(self.min_y_diag, float(y_diag.min()))

        g = np.stack([self.delayed_gradient(i, t) for i in range(V)])
        w_self = np.diag(W)[:, None]
        b_new = w_self * self.b + sum_b + g / y_diag[:, None]

        self.Y = W @ self.Y
        eta = step_size(self.cfg.gamma, t + 1)
        x_new = project(b_new, eta, game.box_lo, game.box_hi)
        x_hat_new = ((t + 1) * self.x_hat + x_new) / (t + 2)
        psi_new = np.stack([game.psi(i, x_hat_new[i]) for i in range(V)])
        psi_old = np.stack([game.psi(i, self.x_hat[i]) for i in range(V)])
        v_new = w_self * self.v + sum_v + psi_new - psi_old

        if self.noise.enabled:
            self.ledger.record(t, self._delta_t, sigma_t)

        self.b, self.x, self.x_hat, self.v = b_new, x_new, x_hat_new, v_new
        self.t = t + 1
        self.history[self.t] = (self.x.copy(), self.v.copy())
        self.history.pop(self.t - self.delays.tau_max - 1, None)

    def messages_pending(self) -> int:
        return sum(self.ring_count)

    def agent_state(self, i: int) -> AgentState:
        return AgentState(b=self.b[i].copy(), y=self.Y[i].copy(), x=self.x[i].copy(),
                          x_hat=self.x_hat[i].copy(), v=self.v[i].copy(),
                          history_times=tuple(sorted(self.history)))

    def clone(self) -> "World":
        return copy.deepcopy(self)


@dataclass
class RunResult:
    """Trajectories over rounds t = 0..T plus the run summary.

    Arrays are indexed [t, agent, coord] (losses [t, agent]); ``loss_local``
    evaluates each agent's cost at its own aggregate estimate, ``loss_true``
    at the exact aggregate of the played actions.
    """

    config: RunConfig
    x: np.ndarray
    x_hat: np.ndarray
    v: np.ndarray
    b: np.ndarray
    y_diag: np.ndarray
    loss_local: np.ndarray
    loss_true: np.ndarray
    ledger: PrivacyLedger
    min_y_diag: float
    messages_enqueued: int = 0
    messages_delivered: int = 0
    messages_pending: int = 0
    wall_time: float = 0.0

    @property
    def horizon(self) -> int:
        return self.x.shape[0] - 1

    def summary(self) -> dict:
        return {
            "run_id": self.config.run_id,
            "seed": self.config.seed,
            "horizon": self.horizon,
            "final_x_hat": self.x_hat[-1].tolist(),
            "epsilon_hat": self.ledger.epsilon_hat,
            "empirical_y_floor": self.min_y_diag,
            "messages_enqueued": self.messages_enqueued,
            "messages_delivered": self.messages_delivered,
            "messages_pending": self.messages_pending,
            "wall_time_s": self.wall_time,
        }


def _losses(game: GameSpec, t: int, x_t: np.ndarray, v_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    V = game.num_agents
    agg = game.aggregate(x_t)
    local = np.array([game.cost(i, t, x_t[i], v_t[i]) for i in range(V)])
    true = np.array([game.cost(i, t, x_t[i], agg) for i in range(V)])
    return local, true


def _collect(world: World, record) -> None:
    record["x"].append(world.x.copy())
    record["x_hat"].append(world.x_hat.copy())
    record["v"].append(world.v.copy())
    record["b"].append(world.b.copy())
    record["y_diag"].append(np.diag(world.Y).copy())
    ll, lt = _losses(world.game, world.t, world.x, world.v)
    record["loss_local"].append(ll)
    record["loss_true"].append(lt)


def _execute(world: World, start: float) -> RunResult:
    record = {k: [] for k in ("x", "x_hat", "v", "b", "y_diag", "loss_local", "loss_true")}
    _collect(world, record)
    for _ in range(world.cfg.horizon):
        world.step()
        _collect(world, record)
    return RunResult(
        config=world.cfg,
        x=np.array(record["x"]), x_hat=np.array(record["x_hat"]),
        v=np.array(record["v"]), b=np.array(record["b"]),
        y_diag=np.array(record["y_diag"]),
        loss_local=np.array(record["loss_local"]), loss_true=np.array(record["loss_true"]),
        ledger=world.ledger, min_y_diag=world.min_y_diag,
        messages_enqueued=world.messages_enqueued,
        messages_delivered=world.messages_delivered,
        messages_pending=world.messages_pending(),
        wall_time=time.perf_counter() - start)


def run(config: RunConfig, game: Optional[GameSpec] = None) -> RunResult:
    """Execute the arrival-ring simulation for t = 0..T-1.

    Deterministic for a given (config, seed): records for rounds 0..T.
    """
    start = time.perf_counter()
    return _execute(World(config, game), start)


class _AugmentedWorld(World):
    """Oracle twin: virtual relay chains instead of the arrival ring.

    Chain stage r holds the noised snapshots from r steps ago; real agents
    read stage r through block r of the augmented matrix built at the send
    time t - r, which reproduces the arrival sum
    sum_r [W(t-r)]_ij b~_j(t-r) I{tau_ij(t-r) = r} term by term.
    """

    def __init__(self, config: RunConfig, game: Optional[GameSpec] = None):
        super().__init__(config, game)
        tau = self.delays.tau_max
        self.chain_b = np.zeros((tau + 1, self.V, self.m))
        self.chain_v = np.zeros((tau + 1, self.V, self.m))
        # top block row of the augmented matrix built at time s, in slot s mod (tau + 1)
        self.aug_rows = np.zeros((tau + 1, self.V, self.V * (tau + 1)))

    def step(self) -> None:
        t = self.t
        V, m = self.V, self.m
        tau = self.delays.tau_max
        W = self.graph.weights_at(t)
        self.aug_rows[t % (tau + 1)] = augment(W, self.delays.comm_matrix(t, V), tau)[:V]
        self.chain_b[0], self.chain_v[0], sigma_t = self._noised(t)

        sum_b = np.zeros((V, m))
        sum_v = np.zeros((V, m))
        for r in range(min(t, tau) + 1):
            block = self.aug_rows[(t - r) % (tau + 1), :, r * V:(r + 1) * V].copy()
            if r == 0:
                np.fill_diagonal(block, 0.0)  # self term uses the raw value
            sum_b += block @ self.chain_b[r]
            sum_v += block @ self.chain_v[r]

        if tau > 0:
            self.chain_b[1:] = self.chain_b[:-1].copy()
            self.chain_v[1:] = self.chain_v[:-1].copy()
        self._apply_updates(t, W, sum_b, sum_v, sigma_t)


def run_augmented_reference(config: RunConfig, game: Optional[GameSpec] = None) -> RunResult:
    """Delay-free execution on V(1 + tau_max) nodes; real-agent trajectories.

    Injects the identical noise substreams as ``run`` and is algebraically
    identical to it up to summation order. Message counters stay zero: this
    route has no arrival ring.
    """
    start = time.perf_counter()
    return _execute(_AugmentedWorld(config, game), start)
