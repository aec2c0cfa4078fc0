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
    """An aggregative game: boxes, costs, the local gradient, aggregate maps.

    Callables take an index array i of shape (k,), a time t that is a scalar
    or a (k,) array aligned with i, and (k, m) tables of actions and
    aggregate values; they return (k,) costs and (k, m) gradients and psi
    values. ``gradient_fn`` is the derivative in x_i of agent i's cost, x_i's
    share of the aggregate included, at the aggregate value psi_val.
    ``aggregative`` builds it from partials; ``per_agent`` adapts callables
    written for one agent at a time.

    The row forms ``psi_values`` and ``gradients`` also take a (..., k, m)
    stack of tables, such as ``verify``'s (2, V, m) state, in one call. Every
    callable's result is checked against the rows' shape.

    L bounds the own-action partial (the aggregate held fixed) on the joint
    box, mu is the strong-monotonicity modulus of the pseudogradient, and
    grad_lipschitz is its Lipschitz constant on the joint box. The
    equilibrium oracle and the regret pass require it (their step size and
    KKT bound rest on it); runs do not.
    """

    name: str
    num_agents: int
    dim: int
    box_lo: np.ndarray  # (V, m)
    box_hi: np.ndarray  # (V, m)
    cost_fn: Callable[[np.ndarray, Times, Vec, Vec], np.ndarray]
    gradient_fn: Callable[[np.ndarray, Times, Vec, Vec], Vec]
    psi_fn: Callable[[np.ndarray, Vec], Vec]
    L: float = 1.0
    mu: float = 1.0
    grad_lipschitz: float | None = None
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):  # k -> arange(k) % V, shared read-only by the batched calls
        object.__setattr__(self, "_index", {})

    @classmethod
    def aggregative(cls, *, grad_own, grad_agg, grad_psi, **fields) -> "GameSpec":
        """A game given by row-form partials: ``grad_own`` in x_i holding the
        aggregate fixed, ``grad_agg`` in the aggregate value, and (k, m, m)
        grad_psi[r, a, b] = d psi_a / d x_b; gradient_fn is their composition."""
        V = fields["num_agents"]

        def gradient_fn(i, t, x, psi_val):
            g1 = np.asarray(grad_own(i, t, x, psi_val), dtype=float)
            g2 = np.asarray(grad_agg(i, t, x, psi_val), dtype=float)
            J = np.asarray(grad_psi(i, x), dtype=float)
            return g1 + (g2[:, None] @ J)[:, 0] / V  # row k: J_k^T g2_k

        return cls(gradient_fn=gradient_fn, **fields)

    @classmethod
    def per_agent(cls, *, cost_fn, psi_fn, gradient_fn=None, grad_own=None, grad_agg=None,
                  grad_psi=None, **fields) -> "GameSpec":
        """A game whose callables take one agent at a time: an integer i and
        t and (m,) arrays. Each is wrapped in a loop over the rows. It takes
        either ``gradient_fn`` or the partials of ``aggregative``.
        """
        def timed(fn, out=np.asarray):  # row r: fn(i[r], t or t[r], x[r], psi_val[r])
            return lambda i, t, x, psi_val: np.stack([out(fn(*row)) for row in zip(
                i.tolist(), np.broadcast_to(t, i.shape).tolist(), x, psi_val)])

        def untimed(fn):
            return lambda i, x: np.stack([np.asarray(fn(j, x_j)) for j, x_j in zip(i.tolist(), x)])

        partials = [fn for fn in (grad_own, grad_agg, grad_psi) if fn is not None]
        if len(partials) not in (0, 3) or (gradient_fn is None) == (not partials):
            raise TypeError("per_agent takes gradient_fn, or grad_own, grad_agg and grad_psi")
        fields.update(cost_fn=timed(cost_fn, float), psi_fn=untimed(psi_fn))
        if gradient_fn is not None:
            return cls(gradient_fn=timed(gradient_fn), **fields)
        return cls.aggregative(grad_own=timed(grad_own), grad_agg=timed(grad_agg),
                               grad_psi=untimed(grad_psi), **fields)

    def _agents(self, k: int) -> np.ndarray:
        """Agent of each row of a (k, m) table of stacked (V, m) blocks."""
        index = self._index.get(k)
        if index is None:
            index = self._index[k] = np.arange(k) % self.num_agents
            index.flags.writeable = False
        return index

    def _row(self, a) -> np.ndarray:
        """One (m,) vector as a (1, m) table."""
        return np.asarray(a, dtype=float).reshape(1, self.dim)

    def cost(self, i: int, t: int, x_i, psi_val) -> float:
        """Cost of agent i at time t given an aggregate value."""
        return float(self._costs(np.array([i]), t, self._row(x_i), self._row(psi_val))[0])

    def psi(self, i: int, x_i) -> Vec:
        x = self._row(x_i)
        return self._checked("psi_fn", self.psi_fn(np.array([i]), x), x)[0]

    def psi_values(self, x: np.ndarray) -> np.ndarray:
        """psi_j(x_j) for every row of x, a (..., k, m) stack of tables of stacked (V, m) blocks."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 2:  # one call on all the stack's rows, not re-entering an override
            return GameSpec.psi_values(self, x.reshape(-1, self.dim)).reshape(x.shape)
        return self._checked("psi_fn", self.psi_fn(self._agents(len(x)), x), x)

    def aggregate(self, x: np.ndarray) -> Vec:
        """Exact aggregate Psi(x) = (1/V) sum_j psi_j(x_j); x has shape (V, m)."""
        return _sum_in_order(self.psi_values(x)) / self.num_agents

    def local_gradient(self, i: int, t: int, x_i, v_i) -> Vec:
        """``gradient_fn`` of agent i, its aggregate estimate v_i substituted
        for the true aggregate.

        Defined for any finite x_i (gradients are analytic formulas); the box
        domain is enforced on costs, not gradients, so probes at or beyond
        faces are allowed.
        """
        return self._gradients(np.array([i]), t, self._row(x_i), self._row(v_i))[0]

    def gradients(self, t, x: np.ndarray, psi_val: np.ndarray) -> np.ndarray:
        """Row form of ``local_gradient`` on a (..., k, m) stack of tables; t is
        a scalar or a flat array of one time per row."""
        if x.ndim > 2:  # one call on all the stack's rows, not re-entering an override
            return GameSpec.gradients(self, t, x.reshape(-1, self.dim),
                                      psi_val.reshape(-1, self.dim)).reshape(x.shape)
        return self._gradients(self._agents(len(x)), t, x, psi_val)

    def _gradients(self, i: np.ndarray, t, x: np.ndarray, psi_val: np.ndarray) -> np.ndarray:
        """``gradient_fn`` of agents i at the rows of x and psi_val."""
        return self._checked("gradient_fn", self.gradient_fn(i, t, x, psi_val), x)

    def _checked(self, name: str, values, x: np.ndarray, shape=None) -> np.ndarray:
        """``values``, what the callable ``name`` returned for the rows of x, as
        floats; ValueError unless they have the rows' shape, or ``shape``."""
        values = np.asarray(values, dtype=float)
        if values.shape != (x.shape if shape is None else shape):
            raise ValueError(f"game {self.name!r}: {name} returned shape {values.shape} for rows of "
                             f"shape {x.shape}" + ("" if shape is None else f", not {shape}"))
        return values

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
        return self._checked("cost_fn", self.cost_fn(i, t, x, psi_val), x, i.shape)


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
    mu = 1 and Lipschitz constant V + 1. The price coefficients 4(i+1) and
    50 i are (V,) tables built once, and each cost or gradient call
    evaluates the time term sin(t/6) once.
    """
    V, m = 5, 1
    lo = np.array([[-5.0], [0.0], [-4.0], [3.0], [-1.0]])
    hi = np.array([[5.0], [10.0], [8.0], [12.0], [6.0]])
    firm = np.arange(1, V + 1)
    slope, level = 4.0 * (firm + 1), 50.0 * firm  # p_i(t) = slope[i] sin6(t) + level[i]

    # t is a scalar or a (k,) time array; math.sin keeps scalar calls cheap
    # and gives the same bits as np.sin
    def sin6(t):
        return np.sin(t / 6.0) if isinstance(t, np.ndarray) else math.sin(t / 6.0)

    # i is a (k,) index array, x_i and psi_val are (k, m) tables and a.T[0]
    # is coordinate 0 of every row; with an integer i and (m,) vectors the
    # same code gives one agent's value, so it also serves GameSpec.per_agent
    def cost_fn(i, t, x_i, psi_val):
        s = sin6(t)
        market = 850.0 - 10.0 * s - V * psi_val.T[0]
        return (slope[i] * s + level[i] - market) * x_i.T[0]

    # p_i - m(t) + (V x_i) / V: the own partial, then psi's identity Jacobian
    # times the partial in the aggregate, V x_i, over V
    def gradient_fn(i, t, x_i, psi_val):
        s = sin6(t)
        return (slope[i] * s + level[i] - 850.0 + 10.0 * s + V * psi_val.T[0])[..., None] + V * x_i / V

    # |own partial| = |(4(i+1)+10) s + 50 i - 850 + S|, affine in s in [-1, 1]
    # and S = sum_j x_j in [sum lo, sum hi]: extremes at the corners.
    s_lo, s_hi = float(lo.sum()), float(hi.sum())
    L = max(abs((4.0 * (i + 2) + 10.0) * s + 50.0 * (i + 1) - 850.0 + S)
            for i in range(V) for s in (-1.0, 1.0) for S in (s_lo, s_hi))

    return GameSpec(
        name="nash-cournot", num_agents=V, dim=m, box_lo=lo, box_hi=hi,
        cost_fn=cost_fn, gradient_fn=gradient_fn, psi_fn=lambda i, x: x,
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

    def gradient_fn(i, t, x_i, psi_val):  # c_i + V psi, plus (V x_i) / V as in nash_cournot
        return (c[i] + V * psi_val.T[0])[..., None] + V * x_i / V

    s_lo, s_hi = float(lo.sum()), float(hi.sum())
    L = max(abs(ci + S) for ci in c for S in (s_lo, s_hi))

    return GameSpec(
        name=name, num_agents=V, dim=m, box_lo=lo, box_hi=hi,
        cost_fn=cost_fn, gradient_fn=gradient_fn, psi_fn=lambda i, x: x,
        L=L, mu=1.0, grad_lipschitz=float(V + 1))


GAME_REGISTRY: dict[str, Callable[[], GameSpec]] = {
    "nash-cournot": nash_cournot,
}


def resolve_game(game) -> GameSpec:
    """Accept a GameSpec or a registered preset name."""
    if isinstance(game, GameSpec):
        return game
    if isinstance(game, str) and game in GAME_REGISTRY:  # a list or other unhashable game is unknown too
        return GAME_REGISTRY[game]()
    raise ValueError(f"unknown game {game!r}; registered: {sorted(GAME_REGISTRY)}")
