"""Aggregative game abstraction and the five-firm production benchmark.

A game couples per-agent costs F_i,t(x_i, Psi) to the scaled aggregate
Psi(x) = (1/V) sum_j psi_j(x_j). The engine always propagates the (1/V)-scaled
average; games whose published form uses the raw sum (like the production
benchmark, whose market price subtracts sum_j x_j) rescale internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Vec = np.ndarray


class ActionDomainError(ValueError):
    """Raised when an action lies outside its agent's box."""


def _as_vec(x, m: int) -> Vec:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (m,):
        raise ValueError(f"expected shape ({m},), got {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class GameSpec:
    """An aggregative game: boxes, costs, analytic gradients, aggregate maps.

    Callables receive 0-based agent index i, integer time t, and arrays of
    shape (m,). ``grad_own`` is the partial in x_i holding the aggregate
    fixed, ``grad_agg`` the partial in the aggregate value; ``grad_psi``
    returns the (m, m) Jacobian with grad_psi[a, b] = d psi_a / d x_b.

    ``vectorized`` declares that the callables also take an index array i of
    shape (k,), x and psi_val of shape (k, m) and t a scalar or a (k,) array,
    and return (k,) costs, (k, m) gradients and psi values and (k, m, m)
    Jacobians. ``gradients``, ``psi_values`` and ``costs`` take (k, m) tables
    whose row r belongs to agent r mod V: one call per callable on such a
    game, one call per row otherwise.

    L bounds ||grad_own|| on the joint box, mu is the strong-monotonicity
    modulus of the pseudogradient, and grad_lipschitz, when known
    analytically, is its Lipschitz constant, used by the equilibrium
    oracle's step size.
    """

    name: str
    num_agents: int
    dim: int
    box_lo: np.ndarray  # (V, m)
    box_hi: np.ndarray  # (V, m)
    cost_fn: Callable[[int, int, Vec, Vec], float]
    grad_own: Callable[[int, int, Vec, Vec], Vec]
    grad_agg: Callable[[int, int, Vec, Vec], Vec]
    psi_fn: Callable[[int, Vec], Vec]
    grad_psi: Callable[[int, Vec], np.ndarray]
    L: float = 1.0
    mu: float = 1.0
    grad_lipschitz: float | None = None
    vectorized: bool = False
    _index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):  # arange(V), shared read-only by the batched calls
        object.__setattr__(self, "_index", np.arange(self.num_agents))
        self._index.flags.writeable = False

    def check_in_box(self, i: int, x_i: Vec, tol: float = 1e-9) -> Vec:
        x_i = _as_vec(x_i, self.dim)
        if np.any(x_i < self.box_lo[i] - tol) or np.any(x_i > self.box_hi[i] + tol):
            raise self._outside(i, x_i)
        return x_i

    def _outside(self, i: int, x_i: Vec, at: str = "") -> ActionDomainError:
        return ActionDomainError(f"action {x_i} of agent {i}{at} outside box "
                                 f"[{self.box_lo[i]}, {self.box_hi[i]}]")

    def _agents(self, k: int) -> np.ndarray:
        """Agent of each row of a (k, m) table of stacked (V, m) blocks."""
        return self._index if k == self.num_agents else np.arange(k) % self.num_agents

    def cost(self, i: int, t: int, x_i, psi_val) -> float:
        """Cost of agent i at time t given an aggregate value."""
        x_i = self.check_in_box(i, x_i)
        return float(self.cost_fn(i, t, x_i, _as_vec(psi_val, self.dim)))

    def psi(self, i: int, x_i) -> Vec:
        return np.asarray(self.psi_fn(i, _as_vec(x_i, self.dim)), dtype=float)

    def psi_values(self, x: np.ndarray) -> np.ndarray:
        """psi_j(x_j) for every row of x, a (k, m) table of stacked (V, m) blocks."""
        x = np.asarray(x, dtype=float)
        i = self._agents(len(x))
        if self.vectorized:
            return np.asarray(self.psi_fn(i, x), dtype=float)
        return np.stack([self.psi(j, x_j) for j, x_j in zip(i.tolist(), x)])

    def aggregate(self, x: np.ndarray) -> Vec:
        """Exact aggregate Psi(x) = (1/V) sum_j psi_j(x_j); x has shape (V, m)."""
        return _sum_in_order(self.psi_values(x)) / self.num_agents

    def local_gradient(self, i: int, t: int, x_i, v_i) -> Vec:
        """Full aggregative gradient with the agent's aggregate estimate v_i
        substituted for the true aggregate:
        grad_own + grad_psi(x_i)^T grad_agg / V.

        Defined for any finite x_i (gradients are analytic formulas); the box
        domain is enforced on costs, not gradients, so probes at or beyond
        faces are allowed.
        """
        x_i = _as_vec(x_i, self.dim)
        v_i = _as_vec(v_i, self.dim)
        g1 = np.asarray(self.grad_own(i, t, x_i, v_i), dtype=float)
        g2 = np.asarray(self.grad_agg(i, t, x_i, v_i), dtype=float)
        J = np.asarray(self.grad_psi(i, x_i), dtype=float)
        return g1 + J.T @ g2 / self.num_agents

    def gradients(self, t, x: np.ndarray, psi_val: np.ndarray) -> np.ndarray:
        """Row form of ``local_gradient``; t is a scalar or a (k,) array of row times."""
        i = self._agents(len(x))
        if not self.vectorized:
            ts = np.broadcast_to(t, i.shape).tolist()
            return np.stack([self.local_gradient(*row) for row in zip(i.tolist(), ts, x, psi_val)])
        g1 = np.asarray(self.grad_own(i, t, x, psi_val), dtype=float)
        g2 = np.asarray(self.grad_agg(i, t, x, psi_val), dtype=float)
        J = np.asarray(self.grad_psi(i, x), dtype=float)
        return g1 + (g2[:, None] @ J)[:, 0] / self.num_agents  # row k: J_k^T g2_k

    def pseudogradient(self, t: int, x: np.ndarray) -> np.ndarray:
        """Stacked local gradients at the exact aggregate; x and result are (V, m)."""
        x = np.asarray(x, dtype=float).reshape(self.num_agents, self.dim)
        return self.gradients(t, x, np.full(x.shape, self.aggregate(x)))

    def costs(self, t, x: np.ndarray, psi_val: np.ndarray) -> np.ndarray:
        """(k,) costs of the rows of the (k, m) tables x and psi_val, stacked
        (V, m) blocks, at time t: a scalar or a (k,) array of row times.
        """
        V, m = self.num_agents, self.dim
        x = np.asarray(x, dtype=float).reshape(-1, m)
        psi_val = np.asarray(psi_val, dtype=float).reshape(-1, m)
        # written as "inside" so that NaN entries count as outside
        blocks = x.reshape(-1, V, m)
        inside = (blocks >= self.box_lo - 1e-9) & (blocks <= self.box_hi + 1e-9)
        if not inside.all():
            r = int(np.argmin(inside.all(axis=2).ravel()))
            raise self._outside(r % V, x[r], f" at round {np.broadcast_to(t, len(x))[r]}")
        i = self._agents(len(x))
        if self.vectorized:
            return np.asarray(self.cost_fn(i, t, x, psi_val), dtype=float)
        ts = np.broadcast_to(t, i.shape).tolist()
        return np.array([float(self.cost_fn(*row)) for row in zip(i.tolist(), ts, x, psi_val)])


def _sum_in_order(rows: np.ndarray) -> np.ndarray:
    """Sum over the agent axis (-2), adding the rows one after another: the
    rounding of a Python ``sum`` over agents (``ndarray.sum`` adds pairwise).
    """
    return np.add.accumulate(rows, axis=-2)[..., -1, :]


# ---------------------------------------------------------------------------
# Shipped games


def nash_cournot() -> GameSpec:
    """Five-firm online production game.

    Firm i (1-based) produces quantity x_i at production price
    p_i(t) = 4(i+1) sin(t/6) + 50 i and sells at market price
    m(t) = 850 - 10 sin(t/6) - sum_j x_j; its cost is (p_i - m) x_i.
    The aggregate map is the identity, so sum_j x_j = V * Psi.

    The constants L and mu are derived from the box geometry at construction
    (L from the affine structure of the own-gradient over the sin and
    aggregate ranges); the pseudogradient Jacobian is I + 11^T, giving
    mu = 1 and Lipschitz constant V + 1.
    """
    V, m = 5, 1
    lo = np.array([[-5.0], [0.0], [-4.0], [3.0], [-1.0]])
    hi = np.array([[5.0], [10.0], [8.0], [12.0], [6.0]])

    # t is a scalar or a (k,) time array; math.sin keeps scalar calls cheap
    # and gives the same bits as np.sin
    def sin6(t):
        return np.sin(t / 6.0) if isinstance(t, np.ndarray) else math.sin(t / 6.0)

    def price(i, t):
        firm = i + 1
        return 4.0 * (firm + 1) * sin6(t) + 50.0 * firm

    # i is an index or an index array, x_i and psi_val are (m,) or (k, m);
    # a.T[0] is coordinate 0: a scalar for one agent (nearly as fast as a[0],
    # unlike a[..., 0]), a (k,) row for k agents
    def cost_fn(i, t, x_i, psi_val):
        market = 850.0 - 10.0 * sin6(t) - V * psi_val.T[0]
        return (price(i, t) - market) * x_i.T[0]

    def grad_own(i, t, x_i, psi_val):
        return (price(i, t) - 850.0 + 10.0 * sin6(t) + V * psi_val.T[0])[..., None]

    def grad_agg(i, t, x_i, psi_val):
        return V * x_i

    identities = np.broadcast_to(np.eye(m), (V, m, m))

    # |grad_own| = |(4(i+1)+10) s + 50 i - 850 + S|, affine in s in [-1, 1]
    # and S = sum_j x_j in [sum lo, sum hi]: extremes at the corners.
    s_lo, s_hi = float(lo.sum()), float(hi.sum())
    L = max(abs((4.0 * (i + 2) + 10.0) * s + 50.0 * (i + 1) - 850.0 + S)
            for i in range(V) for s in (-1.0, 1.0) for S in (s_lo, s_hi))

    return GameSpec(
        name="nash-cournot", num_agents=V, dim=m, box_lo=lo, box_hi=hi,
        cost_fn=cost_fn, grad_own=grad_own, grad_agg=grad_agg,
        psi_fn=lambda i, x: x, grad_psi=lambda i, x: identities[i],
        L=L, mu=1.0, grad_lipschitz=float(V + 1), vectorized=True)


def linear_demand_game(c, box_lo, box_hi, name: str = "linear-demand") -> GameSpec:
    """Time-invariant test game F_i = (c_i + sum_j x_j) x_i with identity psi.

    Same I + 11^T pseudogradient Jacobian as the production benchmark
    (mu = 1, Lipschitz V + 1); with large boxes the equilibrium has the
    closed form x = -c + (sum c / (V+1)) 1.
    """
    c = np.asarray(c, dtype=float)
    V, m = c.size, 1
    lo = np.asarray(box_lo, dtype=float).reshape(V, m)
    hi = np.asarray(box_hi, dtype=float).reshape(V, m)
    if np.any(hi <= lo):
        raise ValueError("boxes must have positive extent")

    # index or index array i, as in nash_cournot
    def cost_fn(i, t, x_i, psi_val):
        return (c[i] + V * psi_val.T[0]) * x_i.T[0]

    identities = np.broadcast_to(np.eye(m), (V, m, m))
    s_lo, s_hi = float(lo.sum()), float(hi.sum())
    L = max(abs(ci + S) for ci in c for S in (s_lo, s_hi))

    return GameSpec(
        name=name, num_agents=V, dim=m, box_lo=lo, box_hi=hi,
        cost_fn=cost_fn,
        grad_own=lambda i, t, x_i, psi_val: (c[i] + V * psi_val.T[0])[..., None],
        grad_agg=lambda i, t, x_i, psi_val: V * x_i,
        psi_fn=lambda i, x: x, grad_psi=lambda i, x: identities[i],
        L=L, mu=1.0, grad_lipschitz=float(V + 1), vectorized=True)


GAME_REGISTRY: dict[str, Callable[[], GameSpec]] = {
    "nash-cournot": nash_cournot,
}


def resolve_game(game) -> GameSpec:
    """Accept a GameSpec or a registered preset name."""
    if isinstance(game, GameSpec):
        return game
    try:
        return GAME_REGISTRY[game]()
    except KeyError:
        raise ValueError(f"unknown game {game!r}; registered: {sorted(GAME_REGISTRY)}")
