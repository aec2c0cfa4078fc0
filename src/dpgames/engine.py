"""Discrete-time executor of the private, delay-tolerant dual-averaging loop.

Each step is a two-phase barrier: every agent first noises its dual variable
and aggregate estimate and sends both to its current out-neighbors, then every
agent folds in whatever arrives this step, adds its delayed compensated
gradient, projects, and updates its running average and aggregate estimate.
Self contributions use the raw, un-noised values and never incur delay.

Transport is an arrival ring of tau_max + 1 slots of shape (V, 2m), the
dual-variable columns before the aggregate-estimate columns: a message sent
by j to i at time s is weighted by W(s)[i, j] when it is sent and added into
the slot of round s + tau_ij(s), so at round t the slot t mod (tau_max + 1)
holds the arrival sum sum_r [W(t-r)]_ij b~_j(t-r) I{tau_ij(t-r) = r}.

Each round draws its randomness as one block per purpose: the (V, m) noise
block, the (V, V) communication-delay matrix and the (V,) feedback delays.
What a round needs that does not depend on the state is a per-phase value,
built once and then shared read-only: the weights, message list and
self-weights of each edge set (``GraphSchedule.phase_at``) and the delays of
a ``none`` or ``fixed`` rule. ``uniform`` rules draw theirs every round.

A state ring of the same shape holds round s's (x, v) in slot s mod
(tau_max + 1), so the delayed gradients of round t are one gather at
s_i = max(t - tau_i(t), 0) and one batched gradient call at the times s_i.
Records fill preallocated arrays; losses are computed after the loop.

``run_augmented_reference`` re-executes the same arithmetic as a delay-free
system of V(1 + tau_max) nodes in which virtual relay chains carry the noised
snapshots: each round's snapshot is contracted once, when it is sent, with
the round's delay blocks built from its (W, D), and every relay stage of
the result is kept by send round. It reads neither the arrival ring nor the
message list, and serves as an independent oracle for the arrival ring.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .game import GameSpec, _sum_in_order, clip_to_box, resolve_game
from .graph import (DelaySchedule, GraphSchedule, Phase, _delay_blocks, eigenvector_floor,
                    validate_b_connectivity)
from .metrics import average_loss, stabilization_stat
from .privacy import (NoiseConfig, PrivacyLedger, sample_noise, sensitivity_bound,
                      substream, STREAM_NOISE, STREAM_NOISE_AGGREGATE)

Y_FLOOR = 1e-15


class DegeneracyError(RuntimeError):
    """y_ii collapsed to ~0: the schedule violates the self-loop requirement."""


class NonFiniteStateError(RuntimeError):
    """A run produced a non-finite dual variable, action or aggregate estimate."""


def project(b: np.ndarray, eta: float, box_lo, box_hi) -> np.ndarray:
    """Regularized projection onto a box with the Euclidean regularizer
    phi(x) = ||x||^2 / 2: the exact minimizer of <b, x> + phi(x)/eta is the
    coordinatewise clamp of -eta * b.
    """
    if eta <= 0:
        raise ValueError(f"step size must be positive, got {eta}")
    return clip_to_box(-eta * np.asarray(b, float), box_lo, box_hi)


def step_size(gamma: float, k: int) -> float:
    """eta(k) = gamma / sqrt(k + 1); the projection producing x(t+1) uses eta(t+1)."""
    return gamma / math.sqrt(k + 1.0)


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
        return np.asarray(self.x0, dtype=float).reshape(game.num_agents, game.dim)

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
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            errors.append(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            errors.append(f"gamma must be positive and finite, got {self.gamma}")
        if self.b_window < 1:
            errors.append(f"b_window must be >= 1, got {self.b_window}")
        elif self.validate_connectivity and self.horizon >= self.b_window:
            report = validate_b_connectivity(self.graph, self.b_window, self.horizon)
            if not report.ok:
                errors.append(f"schedule not strongly connected over window {report.first_violation}")
        errors += self.delays.entry_errors(game.num_agents)
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

    def __init__(self, config: RunConfig):
        errors = config.validate()
        if errors:
            raise ValueError("invalid run config: " + "; ".join(errors))
        self.cfg = config
        self.game = config.resolved_game()
        self.graph = config.graph
        self.delays = config.delays.with_seed(config.seed)
        self.noise = config.noise
        V, m = self.game.num_agents, self.game.dim
        self.V, self.m = V, m

        self.t = 0
        self.b = np.zeros((V, m))
        self.x = config.resolved_x0(self.game).copy()
        self.x_hat = self.x.copy()
        self.v = self.game.psi_values(self.x)
        self.psi_x_hat = self.v  # psi_values(x_hat), carried from round to round
        self.Y = np.eye(V)
        slots = self.delays.tau_max + 1
        self.ring = np.zeros((slots, V, 2 * m))
        self.states = np.zeros((slots, V, 2 * m))  # (x, v) of round s in slot s mod slots
        self.states[0] = np.concatenate((self.x, self.v), axis=1)
        self.ring_count = np.zeros(slots, dtype=int)  # messages waiting in each slot
        self.ledger = PrivacyLedger()
        self.min_y_diag = 1.0
        self.messages_enqueued = 0
        self.messages_delivered = 0
        self.last_arrivals: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._delta_t = self._resolve_sensitivity() if self.noise.enabled else None

    def _resolve_sensitivity(self) -> float:
        if self.noise.sensitivity_mode == "manual":
            return float(self.noise.delta)
        floor = eigenvector_floor(self.graph, max(self.cfg.horizon, 1))
        return sensitivity_bound(self.game.L, 1.0 / floor, self.m)

    def noise_block(self, t: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Round t's (V, m) noise for the duals and for the aggregate
        estimates (one draw when shared), and sigma_t; zeros when disabled.
        """
        if not self.noise.enabled:
            z = np.zeros((self.V, self.m))
            return z, z, 0.0
        _, sigma = self.noise.resolve(self._delta_t)
        shape = (self.V, self.m)
        n_b = sample_noise(sigma, shape, substream(self.cfg.seed, STREAM_NOISE, t))
        if self.noise.shared_draw:
            return n_b, n_b, sigma
        n_v = sample_noise(sigma, shape, substream(self.cfg.seed, STREAM_NOISE_AGGREGATE, t))
        return n_b, n_v, sigma

    def draw_noise(self, i: int, t: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Agent i's row of ``noise_block(t)``."""
        n_b, n_v, sigma = self.noise_block(t)
        return n_b[i], n_v[i], sigma

    def _noised(self, t: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Every agent's noised (b, v) snapshot at round t, and sigma_t."""
        if not self.noise.enabled:
            return self.b, self.v, 0.0
        n_b, n_v, sigma_t = self.noise_block(t)
        return self.b + n_b, self.v + n_v, sigma_t

    def _delayed_gradients(self, t: int) -> np.ndarray:
        """(V, m): agent i's gradient at its stored state of round t - tau_i(t)."""
        tau = self.delays.feedback_delays(t, self.V)
        s = np.maximum(t - tau, 0)
        xv = self.states[s % len(self.states), np.arange(self.V)]
        g = self.game.gradients(s, xv[:, :self.m], xv[:, self.m:])
        if self.cfg.cold_start == "zero":
            g[tau > t] = 0.0
        return g

    def step(self) -> None:
        t = self.t
        phase = self.graph.phase_at(t)
        D = self.delays.comm_matrix(t, self.V)
        b_tilde, v_tilde, sigma_t = self._noised(t)

        # phase 1: every message j -> i, weighted at send time, goes into the
        # slot of its arrival round t + tau_ij(t). Messages are listed sender
        # by sender and np.add.at applies them one at a time in that order,
        # so each receiver's slot sums in send order.
        slots = len(self.ring)
        sender, receiver = phase.sender, phase.receiver
        slot = (t + D[receiver, sender]) % slots
        snapshot = np.concatenate((b_tilde, v_tilde), axis=1)
        np.add.at(self.ring, (slot, receiver), phase.w_msg * snapshot[sender])
        self.ring_count += np.bincount(slot, minlength=slots)
        self.messages_enqueued += len(slot)

        # phase 2: this round's slot holds everything arriving now
        k = t % slots
        arrived = self.ring[k].copy()
        self.ring[k] = 0.0
        self.messages_delivered += int(self.ring_count[k])
        self.ring_count[k] = 0

        self._apply_updates(t, phase, arrived[:, :self.m], arrived[:, self.m:], sigma_t)

    def _apply_updates(self, t: int, phase: Phase, sum_b: np.ndarray,
                       sum_v: np.ndarray, sigma_t: float) -> None:
        """Local part of a round: dual update with compensated delayed
        gradient, eigenvector recursion, projection, running average,
        aggregate-estimate tracking, ledger entry. Shared by the arrival
        ring and virtual-relay routes, which differ only in how the arrival
        sums are formed.
        """
        game = self.game
        self.last_arrivals = (sum_b, sum_v)

        y_diag = self.Y.diagonal()  # a view of this round's Y, which is replaced, not written
        if y_diag.min() < Y_FLOOR:
            raise DegeneracyError(
                f"y_ii = {y_diag.min():.3e} at t={t}; self-loop structure violated")
        self.min_y_diag = min(self.min_y_diag, float(y_diag.min()))

        g = self._delayed_gradients(t)
        w_self = phase.w_self
        b_new = w_self * self.b + sum_b + g / y_diag[:, None]

        self.Y = phase.weights @ self.Y
        eta = step_size(self.cfg.gamma, t + 1)
        x_new = project(b_new, eta, game.box_lo, game.box_hi)
        x_hat_new = ((t + 1) * self.x_hat + x_new) / (t + 2)
        psi_x_hat_new = game.psi_values(x_hat_new)
        v_new = w_self * self.v + sum_v + psi_x_hat_new - self.psi_x_hat

        if self.noise.enabled:
            self.ledger.record(t, self._delta_t, sigma_t)

        self.b, self.x, self.x_hat, self.v = b_new, x_new, x_hat_new, v_new
        self.psi_x_hat = psi_x_hat_new
        self.t = t + 1
        row = self.states[self.t % len(self.states)]
        row[:, :self.m] = x_new
        row[:, self.m:] = v_new

    def messages_pending(self) -> int:
        return int(self.ring_count.sum())


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
        """What ``summary.json`` holds. Runs of 100 rounds or more add each
        agent's tail statistics of its running-average local loss."""
        stabilization = {}
        if self.horizon >= 100:
            for i in range(self.x.shape[1]):
                st = stabilization_stat(average_loss(self.loss_local[1:, i]))
                stabilization[str(i)] = {"tail_rel_std": st.rel_std, "tail_slope": st.slope,
                                         "degenerate": st.degenerate}
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
            "empirical_theta": float("inf") if self.min_y_diag == 0 else 1.0 / self.min_y_diag,
            "stabilization": stabilization,
            "ledger": self.ledger.to_rows(),
        }


def _losses(game: GameSpec, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T + 1, V) costs at each agent's own aggregate estimate and at the
    exact aggregate of every round: two row-form ``costs`` calls.
    """
    n, V, m = x.shape
    t, rows = np.repeat(np.arange(n), V), x.reshape(-1, m)
    exact = np.repeat(_sum_in_order(game.psi_values(rows).reshape(n, V, m)) / V, V, axis=0)
    return (game.costs(t, rows, v.reshape(-1, m)).reshape(n, V),
            game.costs(t, rows, exact).reshape(n, V))


def _collect(world: World, rec: dict, t: int) -> None:
    for name in ("x", "x_hat", "v", "b"):
        rec[name][t] = getattr(world, name)
    rec["y_diag"][t] = world.Y.diagonal()


def _check_finite(rec: dict) -> None:
    """Raise on the first round and agent whose b, x or v is not finite."""
    finite = (np.isfinite(rec["b"]) & np.isfinite(rec["x"]) & np.isfinite(rec["v"])).all(axis=2)
    if not finite.all():
        t, i = np.argwhere(~finite)[0]  # earliest round, then lowest agent
        raise NonFiniteStateError(f"non-finite state at round {t}, agent {i}: b = {rec['b'][t, i]}, "
                                  f"x = {rec['x'][t, i]}, v = {rec['v'][t, i]}")


def _execute(world: World, start: float) -> RunResult:
    T, V, m = world.cfg.horizon, world.V, world.m
    rec = {k: np.empty((T + 1, V, m)) for k in ("x", "x_hat", "v", "b")}
    rec["y_diag"] = np.empty((T + 1, V))
    _collect(world, rec, 0)
    for t in range(1, T + 1):
        world.step()
        _collect(world, rec, t)
    _check_finite(rec)
    loss_local, loss_true = _losses(world.game, rec["x"], rec["v"])
    return RunResult(
        config=world.cfg, **rec, loss_local=loss_local, loss_true=loss_true,
        ledger=world.ledger, min_y_diag=world.min_y_diag,
        messages_enqueued=world.messages_enqueued,
        messages_delivered=world.messages_delivered,
        messages_pending=world.messages_pending(),
        wall_time=time.perf_counter() - start)


def run(config: RunConfig) -> RunResult:
    """Execute the arrival-ring simulation for t = 0..T-1.

    Deterministic for a given (config, seed): records for rounds 0..T.
    """
    start = time.perf_counter()
    return _execute(World(config), start)


class _AugmentedWorld(World):
    """Oracle twin: virtual relay chains instead of the arrival ring.

    Round s's delay blocks W^0(s) .. W^tau_max(s), built from its (W, D)
    with block 0's diagonal zeroed (self terms use raw values), contract the
    noised (b, v) snapshot sent at s once, at send time: slot s mod
    (tau_max + 1) of ``carried`` holds W^r(s) @ (b~, v~)(s) for every stage
    r. Round t sums entry r of slot (t - r) mod (tau_max + 1) over r, which
    reproduces the arrival sum sum_r [W(t-r)]_ij b~_j(t-r) I{tau_ij(t-r) = r}
    term by term without reading the arrival ring or the message list.

    When the comm-delay rule draws nothing, (W, D) is a function of the edge
    set, so each edge set's blocks are built once and reused.
    """

    def __init__(self, config: RunConfig):
        super().__init__(config)
        slots = len(self.states)
        self.carried = np.zeros((slots, slots, self.V, 2 * self.m))  # [s, r]: W^r(s) @ (b~, v~)(s)
        drawn = self.delays.comm["type"] == "uniform"
        self._blocks: Optional[dict] = None if drawn else {}  # edge set -> (slots, V, V)

    def _blocks_at(self, t: int, phase: Phase) -> np.ndarray:
        """Blocks W^0 .. W^tau_max of round t, block 0's diagonal zeroed."""
        blocks = None if self._blocks is None else self._blocks.get(phase.edges)
        if blocks is None:
            blocks = _delay_blocks(phase.weights, self.delays.comm_matrix(t, self.V),
                                   self.delays.tau_max)
            np.fill_diagonal(blocks[0], 0.0)  # self term uses the raw value
            if self._blocks is not None:
                self._blocks[phase.edges] = blocks
        return blocks

    def step(self) -> None:
        t, m, slots = self.t, self.m, len(self.carried)
        phase = self.graph.phase_at(t)
        b_tilde, v_tilde, sigma_t = self._noised(t)
        np.matmul(self._blocks_at(t, phase), np.concatenate((b_tilde, v_tilde), axis=1),
                  out=self.carried[t % slots])

        r = np.arange(min(t, slots - 1) + 1)  # stages that have carried a snapshot
        arrived = self.carried[(t - r) % slots, r].sum(axis=0)
        self._apply_updates(t, phase, arrived[:, :m], arrived[:, m:], sigma_t)


def run_augmented_reference(config: RunConfig) -> RunResult:
    """Delay-free execution on V(1 + tau_max) nodes; real-agent trajectories.

    Draws the same per-round noise and delay blocks as ``run`` (one Philox
    stream per purpose, its counter set from the round) and is algebraically
    identical to it up to summation order. Message counters stay zero: this
    route has no arrival ring.
    """
    start = time.perf_counter()
    return _execute(_AugmentedWorld(config), start)
