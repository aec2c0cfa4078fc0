"""Discrete-time executor of the private, delay-tolerant dual-averaging loop.

A ``RunConfig`` is frozen and checked when built, with its game, initial
actions and noise scale resolved then, so a ``World`` only allocates state.

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
block at the Laplace scale fixed when the ``RunConfig`` is built, the (V, V)
communication-delay matrix and the (V,) feedback delays. The weights and
message list of each edge set (``GraphSchedule.phase_at``) are built once
and shared read-only. The rest of what a round needs that does not depend
on the state comes from a round plan, built when a round leaves the last
one: for a chunk of at most CHUNK_ROUNDS rounds, never past the horizon, it
holds the chunk's weights with their diagonals, the self-weights, and its
delays from one ``DelaySchedule._delays`` call per purpose, every message's
arrival slot, the gradient-ring slots of the delayed gradients, whether a
round delays no agent's feedback, the negated step sizes -eta(t + 1) that
the projection multiplies by, and the products Y(t) with the (V, 1) column
of their diagonals y_ii(t) that divides the delayed gradients. A plan is
refused (``DegeneracyError``) at its first round with min_i y_ii(t) below
Y_FLOOR, so the round kernel makes no schedule decision, and a run reads its
y floor from the records. ``World.__init__`` builds no plan, and a world
stepped by hand past its horizon plans one round at a time.

The delay falls on the gradient, not the state: round t's gradients, one
``game.gradients`` call (one ``gradient_fn`` call on all rows) at time t
before the round changes (x, v), go to slot t mod (tau_max + 1) of a
gradient ring of tau_max + 2 slots, and agent i reads its row of the slot of
max(t - tau_i(t), 0), or under ``cold_start="zero"``, when tau_i(t) > t, of
the last slot, never written and so zero. A round whose feedback delays are
all 0 reads the block the call returned, without gathering from the ring.
Records are preallocated; losses follow the loop.

``run_augmented_reference`` re-executes the same arithmetic as a delay-free
system of V(1 + tau_max) nodes in which virtual relay chains carry the noised
snapshots (``_AugmentedWorld``). It reads neither the arrival ring nor the
message list, and serves as an independent oracle for the arrival ring. Both
routes run one round, ``World.step``, with its plan and kernel
``_apply_updates``, and differ only in how arrival sums are formed
(``World._arrivals``, ``_AugmentedWorld._arrivals``). ``verify`` steps both
in lockstep on the config's own game, as one world (``_PairWorld``) whose
(2, V, m) state leads with a member axis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .game import GameSpec, _sum_in_order, clip_to_box, resolve_game
from .graph import (DelaySchedule, GraphSchedule, _delay_blocks, _integer, eigenvector_floor,
                    validate_b_connectivity)
from .privacy import (NoiseConfig, PrivacyLedger, _positive_finite, sample_noise,
                      sensitivity_bound, substream, STREAM_NOISE, STREAM_NOISE_AGGREGATE)

Y_FLOOR = 1e-15
CHUNK_ROUNDS = 64        # rounds one round plan covers at most
CHUNK_DELAYS = 2 ** 20   # and about this many floats of the twin's delay blocks and the
                         # feedback delays, (tau_max + 1) V^2 + V per round


class ConfigError(ValueError):
    """One message per config problem, joined for display."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


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


def step_size(gamma: float, k):
    """eta(k) = gamma / sqrt(k + 1); the projection producing x(t+1) uses eta(t+1).
    ``k`` may be an integer array, giving one step size per entry."""
    return gamma / np.sqrt(k + 1.0)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; ``game`` may be a registered name or a GameSpec.

    Frozen. Building one, by ``dataclasses.replace`` too, checks it and resolves once for
    every run of it the game, the initial actions and the noise scale (Delta, sigma), or
    raises ConfigError with one message per problem. A given ``x0`` is replaced by its
    read-only float (V, m) copy."""

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
    _game: GameSpec = field(init=False, repr=False, compare=False)
    _x0: np.ndarray = field(init=False, repr=False, compare=False)  # x0, or the box midpoints
    # (Delta, sigma) of every round, None when noise is off
    _scale: Optional[tuple[float, float]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "_game", game := resolve_game(self.game))
        except ValueError as e:
            raise ConfigError([str(e)]) from None
        # the checks below read these fields, so a wrong type is all that is itemized
        wrong = [f"{k} must be {what}, got {v!r}" for k, kind, what in (
            ("graph", GraphSchedule, "a GraphSchedule"), ("delays", DelaySchedule, "a DelaySchedule"),
            ("noise", NoiseConfig, "a NoiseConfig"), ("run_id", str, "a string"),
            ("validate_connectivity", (bool, np.bool_), "true or false"))
            if not isinstance(v := getattr(self, k), kind)]
        if wrong:
            raise ConfigError(wrong)
        errors = []
        if self.graph.num_agents != game.num_agents:
            errors.append(f"graph has {self.graph.num_agents} agents, game has {game.num_agents}")
        # a bool is not taken for a number, as in a config file
        bad = {k: v for k, v in (("horizon", self.horizon), ("seed", self.seed)) if not _integer(v, 0)}
        errors += [f"{k} must be a non-negative integer, got {v!r}" for k, v in bad.items()]
        if not _positive_finite(self.gamma):
            errors.append(f"gamma must be a finite number > 0, got {self.gamma!r}")
        if not _integer(self.b_window, 1):
            errors.append(f"b_window must be an integer >= 1, got {self.b_window!r}")
        elif self.validate_connectivity and "horizon" not in bad and self.horizon >= self.b_window:
            report = validate_b_connectivity(self.graph, self.b_window, self.horizon)
            if not report.ok:
                errors.append(f"schedule not strongly connected over window {report.first_violation}")
        errors += self.delays.entry_errors(game.num_agents)
        if self.cold_start not in ("clamp", "zero"):
            errors.append(f"cold_start must be 'clamp' or 'zero', got {self.cold_start!r}")
        # the keys and values a config file's output block takes
        out = self.output
        if not isinstance(out, dict):
            errors.append(f"output must be a dict, got {out!r}")
        else:
            if out.get("format", "tabular") not in ("tabular", "object-lines"):
                errors.append(f"output format must be 'tabular' or 'object-lines', got {out['format']!r}")
            if not isinstance(out.get("path", ""), str):
                errors.append(f"output path must be a string, got {out['path']!r}")
            if unknown := [k for k in out if k not in ("format", "path")]:
                errors.append(f"output has unknown keys {unknown}")
        try:
            x0 = np.array((game.box_lo + game.box_hi) / 2.0 if self.x0 is None else self.x0,
                          dtype=float).reshape(game.num_agents, game.dim)
            # written as "inside" so that NaN entries count as outside
            inside = np.all((x0 >= game.box_lo - 1e-12) & (x0 <= game.box_hi + 1e-12), axis=1)
            if not inside.all():
                errors.append(f"initial action(s) of agent(s) {np.nonzero(~inside)[0].tolist()}"
                              " outside their boxes")
        except ValueError as e:
            errors.append(f"bad initial actions: {e}")
        if (noise := self.noise).enabled and "horizon" not in bad:
            try:
                delta = float(noise.delta) if noise.sensitivity_mode == "manual" else sensitivity_bound(
                    game.L, 1.0 / eigenvector_floor(self.graph, max(self.horizon, 1)), game.dim)
                object.__setattr__(self, "_scale", (delta, noise._sigma(delta)))
            except ValueError as e:
                errors.append(f"privacy: {e}")
        if errors:
            raise ConfigError(errors)
        x0.flags.writeable = False
        object.__setattr__(self, "_x0", x0)
        object.__setattr__(self, "x0", None if self.x0 is None else x0)

    def resolved_game(self) -> GameSpec:
        return self._game


class _RoundPlan(NamedTuple):
    """What rounds ``start`` .. ``stop - 1`` need that does not depend on the
    state; entry k of every array belongs to round start + k.
    """

    start: int
    stop: int
    W: np.ndarray          # (K, V, V) weights
    w_self: np.ndarray     # (K, V, 1) their diagonals, the self-weights
    D: np.ndarray          # (K, V, V) comm delays
    rows: np.ndarray       # (K, V) gradient-ring slots of the rounds max(t - tau_i(t), 0), or
                           # under cold_start "zero" the zero slot where tau_i(t) > t
    slots: list            # K arrays: each message's arrival slot, in send order
    counts: np.ndarray     # (K, tau_max + 1) messages per arrival slot
    neg_eta: np.ndarray    # (K,) -eta(t + 1), the signed step of the projection to x(t + 1)
    Y: np.ndarray          # (K + 1, V, V) Y(t) = W(t - 1) ... W(0), to Y(stop)
    y: np.ndarray          # (K, V, 1) y_ii(t), the column dividing the delayed gradients
    current: list          # K bools: every tau_i(t) = 0, so each agent reads round t's gradient


class World:
    """Mutable simulation state; ``step()`` advances one synchronous round."""

    _members: tuple = ()  # leading axes of the (*_members, V, m) state: one member per route

    def __init__(self, config: RunConfig):
        self.cfg = config
        self.game = config.resolved_game()
        self.graph = config.graph
        self.delays = config.delays.with_seed(config.seed)
        V, m = self.V, self.m = self.game.num_agents, self.game.dim

        self.t = 0
        self.b = np.zeros((*self._members, V, m))
        self.x = np.broadcast_to(config._x0, self.b.shape).copy()
        self.x_hat = self.x.copy()
        self.v = self.game.psi_values(self.x)
        self.psi_x_hat = self.v  # psi_values(x_hat), carried from round to round
        self.Y = np.eye(V)
        slots = self.delays.tau_max + 1
        self.ring = np.zeros((slots, V, 2 * m))
        # gradients of round s in slot s mod slots; the last slot is never written, so it stays
        # zero, the gradient an agent reads before round 0 under cold_start "zero"
        self.grad_ring = np.zeros((slots + 1, *self.b.shape))
        self._agents = np.arange(V)
        self._grad_rows = np.indices(self.b.shape[:-1], sparse=True)  # each state row's index in a slot
        self.ring_count = np.zeros(slots, dtype=int)  # messages waiting in each slot
        self.messages_enqueued = self.messages_delivered = 0
        self._plan: Optional[_RoundPlan] = None  # built by the first step

    def _noised(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Every agent's noised (b, v) snapshot at round t: ``b`` and ``v``
        themselves when noise is off, else plus round t's (V, m) Laplace
        blocks, one draw for both when it is shared, added to every member."""
        if self.cfg._scale is None:
            return self.b, self.v
        sigma, shape, seed = self.cfg._scale[1], (self.V, self.m), self.cfg.seed
        n_b = sample_noise(sigma, shape, substream(seed, STREAM_NOISE, t))
        n_v = n_b if self.cfg.noise.shared_draw else sample_noise(
            sigma, shape, substream(seed, STREAM_NOISE_AGGREGATE, t))
        return self.b + n_b, self.v + n_v

    def _plan_at(self, t: int) -> tuple[_RoundPlan, int]:
        """The round plan that covers round t, and t's entry in it."""
        plan = self._plan
        if plan is None or not plan.start <= t < plan.stop:
            plan = self._plan = self._build_plan(t)
        return plan, t - plan.start

    def _build_plan(self, start: int) -> _RoundPlan:
        """The plan of the chunk of rounds from ``start``: CHUNK_ROUNDS rounds,
        or fewer so that its delay blocks take about CHUNK_DELAYS floats and
        it ends at the horizon. A round at or past the horizon is planned alone.
        Raises DegeneracyError for its first round with min_i y_ii(t) < Y_FLOOR.
        """
        V, T, slots = self.V, self.cfg.horizon, len(self.ring)
        K = min(CHUNK_ROUNDS, max(CHUNK_DELAYS // (slots * V * V + V), 1), max(T - start, 1))
        t = np.arange(start, start + K)
        D = self.delays._delays("comm", start, start + K, V)
        tau = self.delays._delays("feedback", start, start + K, V)

        # each edge set's weights and messages, for all the chunk's rounds that
        # have it at once; the eigenvector recursion, which reads no state either
        rounds = {}  # id of a phase -> (phase, its entries in the chunk)
        W, Y = np.empty((K, V, V)), np.empty((K + 1, V, V))
        Y[0] = self.Y
        phases = [self.graph.phase_at(s) for s in range(start, start + K)]
        for k, (phase, Y_k, Y_next) in enumerate(zip(phases, Y, Y[1:])):
            rounds.setdefault(id(phase), (phase, []))[1].append(k)
            np.matmul(phase.weights, Y_k, out=Y_next)
        arrival, flat = [None] * K, []
        for phase, ks in rounds.values():
            ks = np.array(ks)
            W[ks] = phase.weights
            at = (t[ks, None] + D[ks[:, None], phase.receiver, phase.sender]) % slots
            for k, row in zip(ks.tolist(), at):
                arrival[k] = row
            flat.append((ks[:, None] * slots + at).ravel())
        counts = np.bincount(np.concatenate(flat), minlength=K * slots).reshape(K, slots)
        # contiguous columns: the kernel reads a strided view of a diagonal slower
        w, y = (A.diagonal(axis1=1, axis2=2)[..., None].copy() for A in (W, Y[:K]))
        for k in np.flatnonzero(y.min(axis=(1, 2)) < Y_FLOOR)[:1]:  # the first degenerate round
            raise DegeneracyError(f"y_ii = {y[k].min():.3e} at t={start + k}; self-loop structure violated")
        rows = np.maximum(t[:, None] - tau, 0) % slots
        if self.cfg.cold_start == "zero":  # no gradient of round t - tau_i(t) < 0: read the zero slot
            rows[tau > t[:, None]] = slots
        return _RoundPlan(start, start + K, W, w, D, rows, arrival, counts,
                          -step_size(self.cfg.gamma, t + 1), Y, y, (~tau.any(axis=1)).tolist())

    def _delayed_gradients(self, plan: _RoundPlan, k: int) -> np.ndarray:
        """Put round t = plan.start + k's gradients, at time t and its starting
        state, in the ring; return (..., V, m), agent i's of round t - tau_i(t):
        the game's own block when every tau_i(t) is 0."""
        t, ring = plan.start + k, self.grad_ring
        g = ring[t % len(self.ring)] = self.game.gradients(t, self.x, self.v)
        return g if plan.current[k] else ring[(plan.rows[k], *self._grad_rows)]

    def step(self) -> None:
        """One round of every world: plan, noise and send, fold in what arrives, update."""
        plan, k = self._plan_at(self.t)
        snapshot = np.concatenate(self._noised(self.t), axis=-1)
        self._apply_updates(plan, k, self._arrivals(plan, k, snapshot))

    def _arrivals(self, plan: _RoundPlan, k: int, snapshot: np.ndarray) -> np.ndarray:
        """Arrival-ring route: send round t's (V, 2m) snapshot; pop t's slot, its arrival sums."""
        t = plan.start + k
        phase = self.graph.phase_at(t)
        # every message j -> i, weighted at send time, goes into the slot of
        # its arrival round t + tau_ij(t). Messages are listed sender by
        # sender and np.add.at applies them one at a time in that order, so
        # each receiver's slot sums in send order.
        slot = plan.slots[k]
        np.add.at(self.ring, (slot, phase.receiver), phase.w_msg * snapshot.take(phase.sender, axis=0))
        self.ring_count += plan.counts[k]
        self.messages_enqueued += len(slot)

        # this round's slot holds everything arriving now
        now = t % len(self.ring)
        arrived = self.ring[now].copy()
        self.ring[now] = 0.0
        self.messages_delivered += int(self.ring_count[now])
        self.ring_count[now] = 0
        return arrived

    def _apply_updates(self, plan: _RoundPlan, k: int, arrived: np.ndarray) -> None:
        """Local part of round t, entry k of ``plan``, on (..., V, m) state:
        dual update with compensated delayed gradient, eigenvector recursion,
        projection, running average, aggregate-estimate tracking. Shared by
        the arrival ring and virtual-relay routes, which differ only in how
        the (..., V, 2m) arrival sums are formed."""
        game, t, m = self.game, plan.start + k, self.m
        sum_b, sum_v = arrived[..., :m], arrived[..., m:]
        g = self._delayed_gradients(plan, k)
        w_self = plan.w_self[k]
        b_new = w_self * self.b + sum_b + g / plan.y[k]

        self.Y = plan.Y[k + 1]
        # project(b_new, eta(t + 1), ...) without its checks: eta > 0 for a valid gamma
        x_new = clip_to_box(plan.neg_eta[k] * b_new, game.box_lo, game.box_hi)
        x_hat_new = ((t + 1) * self.x_hat + x_new) / (t + 2)
        psi_x_hat_new = game.psi_values(x_hat_new)
        v_new = w_self * self.v + sum_v + psi_x_hat_new - self.psi_x_hat

        self.b, self.x, self.x_hat, self.v = b_new, x_new, x_hat_new, v_new
        self.psi_x_hat = psi_x_hat_new
        self.t = t + 1

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
        from .metrics import average_loss, stabilization_stat  # here: a run need not load metrics

        stabilization = {}
        if self.horizon >= 100:
            for i in range(self.x.shape[1]):
                st = stabilization_stat(average_loss(self.loss_local[1:, i]))
                stabilization[str(i)] = {"tail_rel_std": st.rel_std, "tail_slope": st.slope,
                                         "degenerate": st.degenerate}
        return {
            "run_id": self.config.run_id,
            "seed": int(self.config.seed),
            "horizon": self.horizon,
            "final_x_hat": self.x_hat[-1].tolist(),
            "epsilon_hat": self.ledger.epsilon_hat,
            "empirical_y_floor": self.min_y_diag,
            "messages_enqueued": self.messages_enqueued,
            "messages_delivered": self.messages_delivered,
            "messages_pending": self.messages_pending,
            "wall_time_s": self.wall_time,
            "empirical_theta": 1.0 / self.min_y_diag,
            "stabilization": stabilization,
            "ledger": self.ledger.entries(),
        }


def _losses(game: GameSpec, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T + 1, V) costs at each agent's own aggregate estimate and at the
    exact aggregate of every round: two row-form ``costs`` calls.
    """
    n, V = x.shape[:2]
    t = np.repeat(np.arange(n), V)
    exact = np.repeat(_sum_in_order(game.psi_values(x)) / V, V, axis=0)
    return game.costs(t, x, v).reshape(n, V), game.costs(t, x, exact).reshape(n, V)


def _collect(world: World, rec: dict, t: int) -> None:
    for name in ("x", "x_hat", "v", "b"):
        rec[name][t] = getattr(world, name)
    rec["y_diag"][t] = world.Y.diagonal()


def _check_finite(rec: dict) -> None:
    """Raise on the first round, [member,] and agent whose b, x or v is not finite."""
    finite = (np.isfinite(rec["b"]) & np.isfinite(rec["x"]) & np.isfinite(rec["v"])).all(axis=-1)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0])  # earliest round, then member, then lowest agent
        raise NonFiniteStateError(f"non-finite state at round {at[0]}, agent {at[-1]}: b = {rec['b'][at]}, "
                                  f"x = {rec['x'][at]}, v = {rec['v'][at]}")


def _records(world: World) -> dict:
    """Step ``world`` through its horizon; each state's rows of rounds 0..T, checked finite."""
    T = world.cfg.horizon
    rec = {k: np.empty((T + 1, *world.x.shape)) for k in ("x", "x_hat", "v", "b")}
    rec["y_diag"] = np.empty((T + 1, world.V))
    _collect(world, rec, 0)
    for t in range(1, T + 1):
        world.step()
        _collect(world, rec, t)
    _check_finite(rec)
    return rec


def _execute(world: World, start: float) -> RunResult:
    rec = _records(world)
    ledger = PrivacyLedger()
    if world.cfg._scale:  # every round spent Delta / sigma
        ledger.record(world.cfg.horizon, *world.cfg._scale)
    loss_local, loss_true = _losses(world.game, rec["x"], rec["v"])
    return RunResult(
        config=world.cfg, **rec, loss_local=loss_local, loss_true=loss_true,
        # row t is diag Y(t), which every round t < T checked against Y_FLOOR when planned
        ledger=ledger, min_y_diag=float(rec["y_diag"][:-1].min(initial=1.0)),
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
    r. Round t sums entry r of slot (t - r) mod (tau_max + 1) over every r,
    a slot not yet sent holding zeros, which reproduces the arrival sum
    sum_r [W(t-r)]_ij b~_j(t-r) I{tau_ij(t-r) = r} term by term without
    reading the arrival ring or the message list.

    Under every delay rule, the blocks of a plan's whole chunk are built
    from its (W, D) in one pass when the plan is built. In ``verify`` this
    route forms member 1's arrival sums of ``_PairWorld``'s state.
    """

    def __init__(self, config: RunConfig):
        super().__init__(config)
        slots = len(self.ring)
        self.carried = np.zeros((slots, *self.ring.shape))  # [s, r]: W^r(s) @ (b~, v~)(s)
        r = np.arange(slots)  # the (slot, stage) pairs round t sums: entry t mod slots
        self._stages = [(sent, r) for sent in (r[:, None] - r) % slots]

    def _build_plan(self, start: int) -> _RoundPlan:
        plan = super()._build_plan(start)
        self._blocks = _delay_blocks(plan.W, plan.D, self.delays.tau_max)  # (K, slots, V, V)
        self._blocks[:, 0, self._agents, self._agents] = 0.0  # self terms use the raw values
        return plan

    # World.step under the twin's own name: perfbench's tracer patches each
    # class's own ``step`` entry, and times this one as engine.twin_step
    step = World.step

    def _arrivals(self, plan: _RoundPlan, k: int, snapshot: np.ndarray) -> np.ndarray:
        """Relay route: stage round t's (V, 2m) snapshot; the (V, 2m) arrival sums."""
        t, slots = plan.start + k, len(self.carried)
        np.matmul(self._blocks[k], snapshot, out=self.carried[t % slots])
        return self.carried[self._stages[t % slots]].sum(axis=0)


def run_augmented_reference(config: RunConfig) -> RunResult:
    """Delay-free execution on V(1 + tau_max) nodes; real-agent trajectories.

    Draws the same per-round noise and delay blocks as ``run`` (one Philox
    stream per purpose, its counter set from the round) and is algebraically
    identical to it up to summation order. Message counters stay zero: this
    route has no arrival ring.
    """
    start = time.perf_counter()
    return _execute(_AugmentedWorld(config), start)


class _PairWorld(_AugmentedWorld):
    """Both routes in lockstep on (2, V, m) state, one plan, noise draw and update for both:
    member 0 forms its arrival sums with the arrival ring, member 1 with the relay stack."""

    _members = (2,)
    step = World.step  # its own entry as well, so that engine.twin_step times the twin alone

    def _arrivals(self, plan: _RoundPlan, k: int, snapshot: np.ndarray) -> np.ndarray:
        arrived = np.empty(snapshot.shape)
        arrived[0] = World._arrivals(self, plan, k, snapshot[0])
        arrived[1] = _AugmentedWorld._arrivals(self, plan, k, snapshot[1])
        return arrived


def _run_pair(config: RunConfig) -> dict:
    """Records of ``run`` (member 0) and the twin (member 1) stepped in lockstep, (T + 1, 2, V, m)."""
    return _records(_PairWorld(config))
