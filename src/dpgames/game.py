"""Aggregative game abstraction and the five-firm production benchmark.

A game couples per-agent costs F_i,t(x_i, Psi) to the scaled aggregate
Psi(x) = (1/V) sum_j psi_j(x_j). The engine always propagates the (1/V)-scaled
average; games whose published form uses the raw sum (like the production
benchmark, whose market price subtracts sum_j x_j) rescale internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

Vec = np.ndarray
Times = Union[int, np.ndarray]  # one time, or one per row


class ActionDomainError(ValueError):
    """Raised when an action lies outside its agent's box."""


@dataclass(frozen=True, eq=False)
class GameSpec:
    """An aggregative game: boxes, costs, analytic gradients, aggregate maps.

    Callables take an index array i of shape (k,), a time t that is a scalar
    or a (k,) array aligned with i, and (k, m) tables of actions and
    aggregate values; they return (k,) costs, (k, m) gradients and psi
    values and (k, m, m) Jacobians. ``grad_own`` is the partial in x_i
    holding the aggregate fixed, ``grad_agg`` the partial in the aggregate
    value, and grad_psi[r, a, b] = d psi_a / d x_b. ``per_agent`` adapts
    callables written for one agent at a time.

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
    cost_fn: Callable[[np.ndarray, Times, Vec, Vec], np.ndarray]
    grad_own: Callable[[np.ndarray, Times, Vec, Vec], Vec]
    grad_agg: Callable[[np.ndarray, Times, Vec, Vec], Vec]
    psi_fn: Callable[[np.ndarray, Vec], Vec]
    grad_psi: Callable[[np.ndarray, Vec], np.ndarray]
    L: float = 1.0
    mu: float = 1.0
    grad_lipschitz: float | None = None
    _index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):  # arange(V), shared read-only by the batched calls
        object.__setattr__(self, "_index", np.arange(self.num_agents))
        self._index.flags.writeable = False

    @classmethod
    def per_agent(cls, *, cost_fn, grad_own, grad_agg, psi_fn, grad_psi, **fields) -> "GameSpec":
        """A game whose callables take one agent at a time: an integer i and
        t and (m,) arrays. Each is wrapped in a loop over the rows.
        """
        def timed(fn, out=np.asarray):  # row r: fn(i[r], t or t[r], x[r], psi_val[r])
            return lambda i, t, x, psi_val: np.stack([out(fn(*row)) for row in zip(
                i.tolist(), np.broadcast_to(t, i.shape).tolist(), x, psi_val)])

        def untimed(fn):
            return lambda i, x: np.stack([np.asarray(fn(j, x_j)) for j, x_j in zip(i.tolist(), x)])

        return cls(cost_fn=timed(cost_fn, float), grad_own=timed(grad_own),
                   grad_agg=timed(grad_agg), psi_fn=untimed(psi_fn),
                   grad_psi=untimed(grad_psi), **fields)

    def _agents(self, k: int) -> np.ndarray:
        """Agent of each row of a (k, m) table of stacked (V, m) blocks."""
        return self._index if k == self.num_agents else np.arange(k) % self.num_agents

    def _row(self, a) -> np.ndarray:
        """One (m,) vector as a (1, m) table."""
        return np.asarray(a, dtype=float).reshape(1, self.dim)

    def cost(self, i: int, t: int, x_i, psi_val) -> float:
        """Cost of agent i at time t given an aggregate value."""
        return float(self._costs(np.array([i]), t, self._row(x_i), self._row(psi_val))[0])

    def psi(self, i: int, x_i) -> Vec:
        return np.asarray(self.psi_fn(np.array([i]), self._row(x_i)), dtype=float)[0]

    def psi_values(self, x: np.ndarray) -> np.ndarray:
        """psi_j(x_j) for every row of x, a (k, m) table of stacked (V, m) blocks."""
        x = np.asarray(x, dtype=float)
        return np.asarray(self.psi_fn(self._agents(len(x)), x), dtype=float)

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
        i, x_i, v_i = np.array([i]), self._row(x_i), self._row(v_i)
        g1 = np.asarray(self.grad_own(i, t, x_i, v_i), dtype=float)[0]
        g2 = np.asarray(self.grad_agg(i, t, x_i, v_i), dtype=float)[0]
        J = np.asarray(self.grad_psi(i, x_i), dtype=float)[0]
        return g1 + J.T @ g2 / self.num_agents

    def gradients(self, t, x: np.ndarray, psi_val: np.ndarray) -> np.ndarray:
        """Row form of ``local_gradient``; t is a scalar or a (k,) array of row times."""
        i = self._agents(len(x))
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
        x = np.asarray(x, dtype=float).reshape(-1, self.dim)
        psi_val = np.asarray(psi_val, dtype=float).reshape(-1, self.dim)
        return self._costs(self._agents(len(x)), t, x, psi_val)

    def _costs(self, i: np.ndarray, t, x: np.ndarray, psi_val: np.ndarray) -> np.ndarray:
        """``cost_fn`` on rows whose actions lie in the boxes of agents i."""
        # written as "inside" so that NaN entries count as outside
        inside = ((x >= self.box_lo[i] - 1e-9) & (x <= self.box_hi[i] + 1e-9)).all(axis=1)
        if not inside.all():
            r = int(np.argmin(inside))
            raise ActionDomainError(
                f"action {x[r]} of agent {i[r]} at round {np.broadcast_to(t, len(x))[r]} "
                f"outside box [{self.box_lo[i[r]]}, {self.box_hi[i[r]]}]")
        return np.asarray(self.cost_fn(i, t, x, psi_val), dtype=float)


def clip_to_box(x: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray) -> np.ndarray:
    """Coordinatewise clamp of x into [box_lo, box_hi]: the bits of
    ``np.clip`` with array bounds, NaN, infinities and signed zeros included,
    at a fraction of its call overhead on small arrays.
    """
    return np.minimum(np.maximum(x, box_lo), box_hi)


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

    # i is a (k,) index array, x_i and psi_val are (k, m) tables and a.T[0]
    # is coordinate 0 of every row; with an integer i and (m,) vectors the
    # same code gives one agent's value, so it also serves GameSpec.per_agent
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
        L=L, mu=1.0, grad_lipschitz=float(V + 1))


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

    # rows, or one agent, as in nash_cournot
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
        L=L, mu=1.0, grad_lipschitz=float(V + 1))


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
