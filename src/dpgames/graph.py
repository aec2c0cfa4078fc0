"""Time-varying digraph schedules, row-stochastic weights, delays, and the
augmented delay matrix with virtual relay agents.

Edges are ``(src, dst)`` pairs: ``dst`` receives from ``src``, so an edge
``(j, i)`` puts ``j`` in agent ``i``'s in-neighborhood and makes ``W[i, j]``
positive. Every weight matrix here is row stochastic, with each in-edge of
agent ``i`` weighted ``1 / in_degree(i)``.

Schedules are frozen dataclasses, checked when built; the result records are NamedTuples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .privacy import substream, STREAM_COMM_DELAY, STREAM_FEEDBACK_DELAY

Edge = tuple[int, int]
_LOW32 = np.uint64(0xFFFFFFFF)


class ScheduleError(ValueError):
    """Raised for malformed graph schedules (agent count, empty in-neighborhood, bad edges)."""


class DelayRangeError(ValueError):
    """Raised for a delay outside [0, tau_max], tau_ii != 0, a rule that is not a dict of its type's
    keys, a uniform low above its high, a malformed fixed-rule key, or tau_max not in [0, 2^31)."""


def _integer(value, low=-np.inf) -> bool:
    """True for an integer (not a bool) >= low."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


class DiagnosticsError(RuntimeError):
    """Raised when backward products fail to converge to a rank-one matrix."""


def _normalize_edges(num_agents: int, edges: Iterable[Edge], self_loops: bool) -> frozenset[Edge]:
    pairs = [tuple(e) if isinstance(e, Iterable) else (e,) for e in edges]
    # numpy integers count and a bool does not, so int() below converts without truncating
    if bad := [e for e in pairs if not (len(e) == 2 and all(map(_integer, e)))]:
        raise ScheduleError(f"edge {bad[0]!r} is not a pair of integers")
    out = {tuple(map(int, e)) for e in pairs}
    if bad := [e for e in out if not (0 <= e[0] < num_agents and 0 <= e[1] < num_agents)]:
        raise ScheduleError(f"edge {min(bad)} outside agent range [0, {num_agents})")
    return frozenset(out.union((i, i) for i in range(num_agents if self_loops else 0)))


class Phase(NamedTuple):
    """What a round's edge set fixes before any state is read.

    ``sender`` and ``receiver`` list the off-diagonal messages sender by
    sender, receivers ascending; ``w_msg`` is their (n, 1) weight column
    ``W[receiver, sender]``. The self-weights are the diagonal of ``weights``.
    """

    edges: frozenset[Edge]
    weights: np.ndarray
    sender: np.ndarray
    receiver: np.ndarray
    w_msg: np.ndarray


def _phase(num_agents: int, edges: frozenset[Edge], k: int) -> Phase:
    """The read-only ``Phase`` of edge set ``k``; ScheduleError if it leaves an
    agent with no in-neighbors."""
    W = np.zeros((num_agents, num_agents))
    for (src, dst) in edges:
        W[dst, src] = 1.0
    deg = W.sum(axis=1)
    empty = np.nonzero(deg == 0)[0]
    if empty.size:
        raise ScheduleError(f"edge set {k} leaves agent(s) {empty.tolist()} with no in-neighbors"
                            " (self-loop requirement violated)")
    W = W / deg[:, None]
    off_diagonal = W.copy()
    np.fill_diagonal(off_diagonal, 0.0)
    sender, receiver = np.nonzero(off_diagonal.T)
    phase = Phase(edges, W, sender, receiver, W[receiver, sender, None])
    for a in phase[1:]:
        a.flags.writeable = False
    return phase


@dataclass(frozen=True)
class GraphSchedule:
    """A cycle of directed edge sets: the set at time t is
    ``edge_sets[t % period]``. A static schedule is a cycle of one, which is
    what a config file (``cli.SCHEMA``) calls ``static`` when written.

    Every constructor normalizes ``edge_sets`` to frozensets of in-range
    integer edges, with the self-loops that ``require_self_loops`` asks for,
    and builds and checks one read-only ``Phase`` per distinct edge set, so
    an out-of-range edge or an edge set that leaves an agent with no
    in-neighbors raises ScheduleError here, not when a round reaches it.
    ``static`` and ``periodic`` are its wrappers for one or many edge sets.
    A rule ``t -> edges`` over a T-round run is
    ``GraphSchedule.periodic(V, [rule(t) for t in range(T)])``.
    """

    num_agents: int
    edge_sets: tuple[frozenset[Edge], ...]
    require_self_loops: bool = True
    _phases: tuple[Phase, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _integer(self.num_agents, 1):
            raise ScheduleError(f"num_agents must be an integer >= 1, got {self.num_agents!r}")
        if not isinstance(self.require_self_loops, (bool, np.bool_)):
            raise ScheduleError(f"require_self_loops must be true or false, got {self.require_self_loops!r}")
        object.__setattr__(self, "num_agents", int(self.num_agents))  # numpy scalars as Python ones
        object.__setattr__(self, "require_self_loops", bool(self.require_self_loops))
        object.__setattr__(self, "edge_sets", tuple(
            _normalize_edges(self.num_agents, es, self.require_self_loops) for es in self.edge_sets))
        if not self.edge_sets:
            raise ScheduleError("a schedule needs at least one edge set")
        built = {}
        for k, edges in enumerate(self.edge_sets):
            if edges not in built:
                built[edges] = _phase(self.num_agents, edges, k)
        object.__setattr__(self, "_phases", tuple(map(built.get, self.edge_sets)))

    @staticmethod
    def static(num_agents: int, edges: Iterable[Edge], require_self_loops: bool = True) -> "GraphSchedule":
        return GraphSchedule(num_agents, (edges,), require_self_loops)

    @staticmethod
    def periodic(num_agents: int, edge_sets: Iterable[Iterable[Edge]],
                 require_self_loops: bool = True) -> "GraphSchedule":
        return GraphSchedule(num_agents, edge_sets, require_self_loops)

    def phase_at(self, t: int) -> Phase:
        """Round t's ``Phase``, built once per edge set and read-only."""
        if t < 0:
            raise ScheduleError(f"time index {t} < 0")
        return self._phases[t % len(self._phases)]

    def edges_at(self, t: int) -> frozenset[Edge]:
        return self.phase_at(t).edges

    def weights_at(self, t: int) -> np.ndarray:
        """Row-stochastic weight matrix at time t, each in-edge weighted 1/d_i:
        the read-only weights of ``phase_at(t)``."""
        return self.phase_at(t).weights


# ---------------------------------------------------------------------------
# Delay schedules


_RULE_KEYS = {"none": ("type",), "fixed": ("type", "entries"), "uniform": ("type", "low", "high")}


@dataclass(frozen=True)
class DelaySchedule:
    """Per-edge communication delays tau_ij(t) and per-agent feedback delays
    tau_i(t), all integers in [0, tau_max], with tau_ii(t) = 0 always.

    ``comm`` / ``feedback`` rules, each kept read-only with exactly its type's keys:
      {"type": "none"}                              all zero
      {"type": "fixed", "entries": {(i, j): d}}     constant per (receiver i, sender j)
      {"type": "uniform", "low": a, "high": b}      iid uniform integers in [a, b],
                                                    seeded; ``low`` defaults to 0
                                                    and may not exceed ``high``

    A ``seed`` of None is resolved to the run's master seed by the engine.
    Random delays are drawn as one block per (purpose, round), so the delay
    of a given (i, j, t) is independent of query order and of V. One
    builder, ``_delays``, gives every rule's delays for a chunk of rounds:
    the engine calls it once per round plan, and ``comm_matrix`` and
    ``feedback_delays`` are its one-round views. A ``none`` or ``fixed``
    rule draws nothing: its matrix or vector is built once per call and
    shared read-only by the rounds of the chunk. ``tau_max`` stays below
    2^31, the largest range the 32-bit draw covers.
    """

    tau_max: int
    comm: dict = field(default_factory=lambda: {"type": "none"})
    feedback: dict = field(default_factory=lambda: {"type": "none"})
    seed: Optional[int] = None

    def __post_init__(self):
        if not (_integer(self.tau_max, 0) and self.tau_max < 2 ** 31):
            raise DelayRangeError(f"tau_max must lie in [0, 2^31), got {self.tau_max!r}")
        if not (self.seed is None or _integer(self.seed, 0)):
            raise ValueError(f"delay seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "tau_max", int(self.tau_max))  # numpy scalars as Python ones
        object.__setattr__(self, "seed", None if self.seed is None else int(self.seed))
        for name, desc in (("comm", self.comm), ("feedback", self.feedback)):
            if not isinstance(desc, (dict, MappingProxyType)):
                raise DelayRangeError(f"{name} rule must be a dict, got {desc!r}")
            kind = desc.get("type")
            # a copy, read-only once checked; a uniform rule without low starts at 0
            rule = {**desc, "low": desc.get("low", 0)} if kind == "uniform" else dict(desc)
            if kind not in _RULE_KEYS:
                raise DelayRangeError(f"unknown delay rule type {kind!r}")
            if set(rule) != set(keys := _RULE_KEYS[kind]):  # a key missing or unknown
                raise DelayRangeError(f"{name} {kind} rule needs the keys {list(keys)}, got {list(rule)}")
            if kind == "fixed":
                if not isinstance(rule["entries"], (dict, MappingProxyType)):
                    raise DelayRangeError(f"{name} entries must be a dict, got {rule['entries']!r}")
                # a comm key is a (receiver, sender) pair, a feedback key one
                # agent; both are kept as Python ints, as are the delays
                entries = {}
                for key, d in rule["entries"].items():
                    if not (isinstance(key, tuple) and len(key) == 2 and all(map(_integer, key))
                            if name == "comm" else _integer(key)):
                        raise DelayRangeError(f"{name} entry key {key!r} is not " + (
                            "a pair of integers" if name == "comm" else "an integer"))
                    key = tuple(map(int, key)) if name == "comm" else int(key)
                    self._check(d, f"{name} entry {key}")
                    entries[key] = int(d)
                rule["entries"] = MappingProxyType(entries)
            elif kind == "uniform":
                self._check(rule["low"], f"{name} uniform low")
                self._check(rule["high"], f"{name} uniform high")
                rule["low"], rule["high"] = int(rule["low"]), int(rule["high"])
                if rule["low"] > rule["high"]:
                    raise DelayRangeError(
                        f"{name} uniform low {rule['low']} exceeds high {rule['high']}")
            object.__setattr__(self, name, MappingProxyType(rule))

    def __deepcopy__(self, memo) -> "DelaySchedule":
        return self  # read-only throughout

    def _check(self, d: int, what: str) -> None:
        if not (_integer(d, 0) and d <= self.tau_max):
            raise DelayRangeError(f"{what} {d!r} is not an integer in [0, {self.tau_max}]")

    @staticmethod
    def none() -> "DelaySchedule":
        return DelaySchedule(0)

    @staticmethod
    def fixed(tau_max: int, comm: Optional[dict] = None,
              feedback: Optional[dict] = None) -> "DelaySchedule":
        """Constant delays: comm maps (receiver, sender) -> delay, feedback maps agent -> delay."""
        rule = lambda entries: {"type": "fixed", "entries": dict(entries)} if entries else {"type": "none"}
        return DelaySchedule(tau_max, rule(comm), rule(feedback))

    @staticmethod
    def uniform(tau_max: int, low: int = 0, high: Optional[int] = None,
                seed: Optional[int] = None) -> "DelaySchedule":
        hi = tau_max if high is None else high
        rule = {"type": "uniform", "low": low, "high": hi}
        return DelaySchedule(tau_max, rule, rule, seed)  # each rule is copied when built

    def with_seed(self, seed: int) -> "DelaySchedule":
        return self if self.seed is not None else replace(self, seed=seed)

    def comm_matrix(self, t: int, num_agents: int) -> np.ndarray:
        """(V, V) integer matrix of the delays tau_ij(t) of messages sent at
        time t, receiver i by row and sender j by column, zero diagonal:
        round t's entry of ``_delays``."""
        return self._delays("comm", t, t + 1, num_agents)[0]

    def feedback_delays(self, t: int, num_agents: int) -> np.ndarray:
        """(V,) integer vector of the feedback delays tau_i(t): round t's
        entry of ``_delays``."""
        return self._delays("feedback", t, t + 1, num_agents)[0]

    def _delays(self, name: str, start: int, stop: int, V: int) -> np.ndarray:
        """The rule ``name``'s delays of rounds start .. stop - 1: (K, V, V)
        comm matrices or (K, V) feedback vectors, K = stop - start.

        A uniform rule makes one ``_draw``. A comm matrix takes V^2 draws,
        laid out shell by shell over max(i, j) (see ``_shell_order``), so
        every smaller V's matrix is the top-left block of this one, as every
        smaller V's feedback vector is a prefix. A ``none`` or ``fixed`` rule
        builds one read-only matrix or vector, broadcast over the rounds;
        fixed entries naming an agent outside [0, V) are left out here and
        rejected when a ``RunConfig`` is built. Every comm diagonal is zero.
        """
        rule, comm = getattr(self, name), name == "comm"
        if rule["type"] == "uniform":
            if not comm:
                return self._draw(rule, STREAM_FEEDBACK_DELAY, start, stop, V)
            D = self._draw(rule, STREAM_COMM_DELAY, start, stop, V * V)[:, _shell_order(V)]
            D[:, np.arange(V), np.arange(V)] = 0
            return D
        out = np.zeros((V, V) if comm else V, dtype=int)
        for key, d in rule.get("entries", {}).items():
            key = key if comm else (key,)
            if all(0 <= k < V for k in key) and not (comm and key[0] == key[1]):
                out[key] = d
        return np.broadcast_to(out, (stop - start, *out.shape))

    def _draw(self, rule: dict, purpose: int, start: int, stop: int, n: int) -> np.ndarray:
        """(stop - start, n) integers of the uniform ``rule``: row k equals
        ``substream(seed, purpose, start + k).integers(low, high + 1, size=n)``.

        Each round makes one ``random_raw`` call for the ceil(n / 2) Philox
        words it needs, and numpy's buffered 32-bit bounded-integer rule
        (Lemire, "Fast random integer generation in an interval", ACM TOMACS
        2019) maps the whole chunk at once: the low half of each word, then
        its high half, becomes ``low + (half * range) >> 32``. That rule
        rejects a half whose product's low 32 bits fall under
        ``(2^32 - range) % range`` and draws again, shifting every later
        value, so a round with any such half is redrawn with ``integers``
        itself. The mapping is numpy's for every range below 2^32; a
        schedule's range is at most 2^31, since ``tau_max`` < 2^31.
        """
        seed, low = self._need_seed(), rule["low"]
        span = rule["high"] - low + 1
        words = np.empty((stop - start, (n + 1) // 2), "<u8")
        for k, t in enumerate(range(start, stop)):
            words[k] = substream(seed, purpose, t).bit_generator.random_raw(words.shape[1])
        # little-endian, so each word's low half comes first on any host
        scaled = words.view("<u4")[:, :n] * np.uint64(span)
        rejected = ((scaled & _LOW32) < np.uint64((2 ** 32 - span) % span)).any(axis=1)
        scaled >>= np.uint64(32)
        out = scaled.view(np.int64)  # every value is now below 2^32
        out += low
        for k in np.flatnonzero(rejected):
            out[k] = substream(seed, purpose, start + k).integers(low, rule["high"] + 1, size=n)
        return out

    def comm_delay(self, i: int, j: int, t: int) -> int:
        """Delay of the message sent by j at time t to receiver i: entry
        (i, j) of ``comm_matrix(t, V)`` for every V > max(i, j).
        """
        return int(self.comm_matrix(t, max(i, j) + 1)[i, j])

    def feedback_delay(self, i: int, t: int) -> int:
        """Entry i of ``feedback_delays(t, V)`` for every V > i."""
        return int(self.feedback_delays(t, i + 1)[i])

    def entry_errors(self, num_agents: int) -> list[str]:
        """Fixed entries a run on ``num_agents`` agents would never read:
        an agent outside [0, V), or a non-zero self-delay (tau_ii is 0).
        """
        errors = []
        if self.comm["type"] == "fixed":
            for (i, j), d in sorted(self.comm["entries"].items()):
                if not (0 <= i < num_agents and 0 <= j < num_agents):
                    errors.append(f"comm delay entry {[i, j, d]} names an agent"
                                  f" outside [0, {num_agents})")
                elif i == j and d != 0:
                    errors.append(f"comm delay entry {[i, j, d]} is a non-zero self-delay")
        if self.feedback["type"] == "fixed":
            for i, d in sorted(self.feedback["entries"].items()):
                if not 0 <= i < num_agents:
                    errors.append(f"feedback delay entry {[i, d]} names an agent"
                                  f" outside [0, {num_agents})")
        return errors

    def _need_seed(self) -> int:
        if self.seed is None:
            raise DelayRangeError("randomized delay schedule used before its seed was resolved")
        return self.seed


@functools.lru_cache(maxsize=16)
def _shell_order(num_agents: int) -> np.ndarray:
    """(V, V) index of entry (i, j) in the flat draw of a delay matrix.

    Shell k = max(i, j) takes draws k^2 .. (k + 1)^2 - 1: first (k, 0) ..
    (k, k - 1), then (0, k) .. (k, k). The first V^2 draws therefore fill
    shells 0 .. V - 1, which is the whole V x V matrix for any V.
    """
    i, j = np.indices((num_agents, num_agents))
    order = np.where(j < i, i * i + j, j * j + j + i)
    order.flags.writeable = False
    return order


# ---------------------------------------------------------------------------
# Connectivity validation


class ConnectivityReport(NamedTuple):
    ok: bool
    first_violation: Optional[tuple[int, int]] = None  # [start, end] inclusive


def validate_b_connectivity(schedule: GraphSchedule, b_window: int, horizon: int) -> ConnectivityReport:
    """Check that the union edge set over every window [kB, (k+1)B - 1] inside
    the horizon is strongly connected.

    Returns a report rather than raising; the first violating window (if any)
    is included for diagnostics. A window's union depends only on its start
    modulo the period, so only the starts below lcm(period, B) are visited,
    and each distinct union among them is decided once.
    """
    if b_window < 1:
        raise ScheduleError(f"connectivity window must be >= 1, got {b_window}")
    if horizon < b_window:
        raise ScheduleError(f"horizon {horizon} shorter than window {b_window}")
    V, period = schedule.num_agents, len(schedule.edge_sets)
    connected = set()  # window unions found strongly connected so far
    for start in range(0, min(horizon - b_window + 1, math.lcm(period, b_window)), b_window):
        union = frozenset().union(*map(schedule.edges_at, range(start, start + b_window)))
        if union in connected:
            continue
        adj = np.eye(V, dtype=bool)
        for (src, dst) in union:
            adj[src, dst] = True
        if not _strongly_connected(adj):
            return ConnectivityReport(False, (start, start + b_window - 1))
        connected.add(union)
    return ConnectivityReport(True)


def _strongly_connected(adj: np.ndarray) -> bool:
    """True when every node reaches every other along the edges of the
    reflexive boolean adjacency ``adj``: after k squarings the closure
    covers paths of up to 2^k hops, and V - 1 hops reach every node.
    """
    reach = adj.astype(float)
    for _ in range((len(adj) - 1).bit_length()):
        reach = ((reach @ reach) > 0).astype(float)
    return bool(reach.all())


# ---------------------------------------------------------------------------
# Augmented delay matrix


def _delay_blocks(weights: np.ndarray, delays: np.ndarray, tau_max: int) -> np.ndarray:
    """The (..., tau_max + 1, V, V) delay blocks W^0 .. W^tau_max of (V, V)
    or (K, V, V) weights and delays, ``W^r[i, j] = W[i, j]`` exactly when
    ``delays[i, j] == r``: each weight lands in one block, so they sum to W.
    One flat scatter writes them: weight (k, i, j) goes to entry
    (k S + D) V^2 + i V + j of K S V^2 zeros, S = tau_max + 1, without
    comparing any delay with the stages it is not.

    Checks nothing: ``augment`` checks what callers pass from outside, and
    the twin passes a round plan's weights from ``GraphSchedule.phase_at``
    and delays from ``DelaySchedule``, which built them valid.
    """
    *lead, V, _ = weights.shape
    S, n = tau_max + 1, V * V
    at = delays.reshape(-1, n) * n  # row k: D V^2, plus k S V^2 + i V + j below
    at += np.arange(0, weights.size * S, S * n)[:, None] + np.arange(n)
    blocks = np.zeros(weights.size * S)
    blocks[at.ravel()] = weights.ravel()
    return blocks.reshape(*lead, S, V, V)


def augment(weights: np.ndarray, delays: np.ndarray, tau_max: int) -> np.ndarray:
    """Augmented matrix on V' = V(1 + tau_max) nodes for one time step.

    The top block row holds the delay blocks W^0 .. W^tau_max side by side,
    block r keeping the weights of delay r (each original weight lands in
    exactly one block, so the result stays row stochastic). Sub-diagonal
    identity blocks shift the virtual relay chain one stage per step.

    Raises ValueError unless W is square and row stochastic and D has its
    shape, and DelayRangeError for a delay outside [0, tau_max] or tau_ii != 0.
    """
    W = np.asarray(weights, dtype=float)
    V = W.shape[0]
    if W.shape != (V, V):
        raise ValueError(f"weights must be square, got {W.shape}")
    if np.abs(W.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("weights matrix is not row stochastic")
    D = np.asarray(delays, dtype=int)
    if D.shape != (V, V):
        raise ValueError(f"delays must match weights shape, got {D.shape}")
    if D.min() < 0 or D.max() > tau_max:
        raise DelayRangeError(
            f"delay entries span [{D.min()}, {D.max()}], outside [0, {tau_max}]")
    if D.diagonal().any():
        raise DelayRangeError("self delays tau_ii must be zero")
    blocks, S = _delay_blocks(W, D, tau_max), tau_max + 1
    A = np.zeros((V * S, V * S))
    A[:V] = blocks.transpose(1, 0, 2).reshape(V, -1)  # W^r[i, j] at A[i, r V + j]
    relay = np.arange(V, V * S)
    A[relay, relay - V] = 1.0  # stage r - 1 of agent i feeds stage r
    return A


# ---------------------------------------------------------------------------
# Mixing diagnostics


class MixingDiagnostics(NamedTuple):
    c_hat: float
    lambda_hat: float
    r_squared: float
    pi_trace: np.ndarray        # (horizon, V') stochastic vectors
    deviations: np.ndarray      # max_ij |[W'(t:0)]_ij - pi_j(0)| per product length
    min_pi_real: float          # min over t and real agents
    min_pi_all: float           # min over t and all augmented nodes


def mixing_diagnostics(schedule: GraphSchedule, delays: DelaySchedule,
                       horizon: int) -> MixingDiagnostics:
    """Estimate the geometric mixing constants of the augmented backward
    products and the absolute-probability trace pi(t).

    pi(t) is obtained from the backward recursion pi(t) = W'(t)^T pi(t+1)
    started from the uniform vector at the horizon; each pi(t) is a
    probability vector. Entries for real agents stay positive under
    B-connectivity with self-loops; entries for a virtual relay stage are
    exactly zero at times when no edge uses that delay level, so only the
    real-agent minimum is a meaningful positivity witness.

    C and lambda come from least squares on log deviations of the product
    anchored at t=0 against its limiting row.
    """
    if horizon < 5:
        raise DiagnosticsError(f"horizon {horizon} too short for mixing diagnostics")
    V = schedule.num_agents
    # every pass builds each round's matrix again, so none keeps more than
    # one matrix and one product
    mat = lambda t: augment(schedule.weights_at(t), delays.comm_matrix(t, V), delays.tau_max)

    def products():  # W'(t:0) = W'(t) ... W'(0) for t = 0 .. horizon - 1
        P = np.eye(V * (delays.tau_max + 1))
        for t in range(horizon):
            P = mat(t) @ P
            yield P

    row_range = lambda M: (M.max(axis=0) - M.min(axis=0)).max()
    for t, P in enumerate(products()):
        if t == 0:
            r0 = row_range(P)
    rT = row_range(P)
    if not (rT < min(0.5 * r0 + 1e-15, 1e-3)):
        raise DiagnosticsError(
            f"backward products not converging to rank one (row range {rT:.3e}"
            f" after {horizon} steps); check connectivity")

    pi0 = P.mean(axis=0)
    devs = np.array([np.abs(P - pi0[None, :]).max() for P in products()])

    mask = devs > 1e-14
    ell = np.arange(1, horizon + 1, dtype=float)[mask]
    logd = np.log(devs[mask])
    if ell.size >= 3:
        A = np.vstack([ell, np.ones_like(ell)]).T
        coef, resid, *_ = np.linalg.lstsq(A, logd, rcond=None)
        lam = math.exp(coef[0])
        c = math.exp(coef[1])
        ss_tot = float(((logd - logd.mean()) ** 2).sum())
        ss_res = float(resid[0]) if resid.size else 0.0
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    else:
        # mixed below measurement precision within the first steps; report
        # the floor as an upper bound on the rate
        lam, c, r2 = 1e-14, float(max(devs[0], 1e-14)), 1.0

    trace = np.empty((horizon, len(pi0)))
    pi = np.full(len(pi0), 1.0 / len(pi0))
    for t in range(horizon - 1, -1, -1):
        pi = mat(t).T @ pi
        trace[t] = pi
    return MixingDiagnostics(
        c_hat=c, lambda_hat=lam, r_squared=r2, pi_trace=trace, deviations=devs,
        min_pi_real=float(trace[:, :V].min()), min_pi_all=float(trace.min()))


def eigenvector_floor(schedule: GraphSchedule, horizon: int) -> float:
    """min over t in [0, horizon] and agents i of y_ii(t), with
    Y(t) = W(t-1) ... W(0) and Y(0) = I.

    The reciprocal is the empirical theta used by the analytic sensitivity
    bound.
    """
    Y = np.eye(schedule.num_agents)
    diags = np.ones((horizon + 1, len(Y)))  # row t is diag Y(t)
    for t in range(horizon):
        Y = schedule.weights_at(t) @ Y
        diags[t + 1] = Y.diagonal()
    floor = float(diags.min())
    if floor <= 0:
        raise ScheduleError("y_ii reached zero; schedule lacks self-loops")
    return floor
