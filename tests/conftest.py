import dataclasses
import math
import types

import numpy as np
import pytest

import dpgames as dp
from dpgames.cli import benchmark_graph, preset


def bench_init():
    return np.array([[-1.0], [2.0], [2.0], [5.0], [1.0]])


def complete_graph(num_agents):
    return dp.GraphSchedule.static(
        num_agents, [(i, j) for i in range(num_agents) for j in range(num_agents)])


def ring_graph(num_agents):
    edges = [(i, (i + 1) % num_agents) for i in range(num_agents)]
    return dp.GraphSchedule.static(num_agents, edges)


def small_linear_game(num_agents, box=5.0):
    c = [-20.0 - 5.0 * i for i in range(num_agents)]
    return dp.linear_demand_game(c, [-box] * num_agents, [box] * num_agents)


def toy_2d_game():
    """Three agents with two-dimensional actions, written one agent at a time."""
    V, m = 3, 2
    c = np.array([[-8.0, 4.0], [2.0, -6.0], [5.0, 1.0]])
    identity = np.eye(m)
    return dp.GameSpec.per_agent(
        name="toy-2d", num_agents=V, dim=m, box_lo=np.full((V, m), -4.0),
        box_hi=np.full((V, m), 4.0),
        cost_fn=lambda i, t, x, p: float((c[i] + V * p) @ x),
        grad_own=lambda i, t, x, p: c[i] + V * p,
        grad_agg=lambda i, t, x, p: V * x,
        psi_fn=lambda i, x: x, grad_psi=lambda i, x: identity,
        L=float(np.abs(c).max() + V * m * 4.0), mu=1.0,
        grad_lipschitz=float(V + 1))


def game_fields(game, *drop):
    """The constructor fields of ``game``, less those named in ``drop``."""
    return {f.name: getattr(game, f.name) for f in dataclasses.fields(game)
            if f.init and f.name not in drop}


def cournot_partials():
    """``nash_cournot``'s published partials in the row form of
    ``GameSpec.aggregative`` (with an integer i and (m,) vectors they give one
    agent's): the own partial p_i(t) - m(t) = 4(i+1) sin(t/6) + 50 i - 850 +
    10 sin(t/6) + V psi, the partial V x_i in the aggregate, and psi's
    identity Jacobian.
    """
    V = 5
    firm = np.arange(1, V + 1)
    slope, level = 4.0 * (firm + 1), 50.0 * firm

    def grad_own(i, t, x, p):
        s = np.sin(t / 6.0) if isinstance(t, np.ndarray) else math.sin(t / 6.0)
        return (slope[i] * s + level[i] - 850.0 + 10.0 * s + V * p.T[0])[..., None]

    identities = np.broadcast_to(np.eye(1), (V, 1, 1))
    return dict(grad_own=grad_own, grad_agg=lambda i, t, x, p: V * x,
                grad_psi=lambda i, x: identities[i])


def linear_demand_partials(c):
    """``linear_demand_game(c, ...)``'s published partials, as ``cournot_partials``:
    the own partial c_i + V psi, V x_i in the aggregate, identity Jacobian."""
    c = np.asarray(c, dtype=float)
    V = c.size
    identities = np.broadcast_to(np.eye(1), (V, 1, 1))
    return dict(grad_own=lambda i, t, x, p: (c[i] + V * p.T[0])[..., None],
                grad_agg=lambda i, t, x, p: V * x, grad_psi=lambda i, x: identities[i])


def aggregative_copy(game, partials, **replaced):
    """``game`` rebuilt with ``GameSpec.aggregative`` from ``partials``, any of
    them replaced by ``replaced``."""
    return dp.GameSpec.aggregative(**{**partials, **replaced}, **game_fields(game, "gradient_fn"))


def per_agent_copy(game, **callables):
    """``game`` rebuilt with ``GameSpec.per_agent`` from its own callables,
    any of them replaced by ``callables``: every row evaluated on its own.
    Partials among ``callables`` take the place of ``gradient_fn``.
    """
    drop = ("gradient_fn",) if "grad_own" in callables else ()
    return dp.GameSpec.per_agent(**{**game_fields(game, *drop), **callables})


def count_checks_and_games(monkeypatch) -> list:
    """A list that each ``RunConfig`` build ("check") and registry-game build appends to."""
    calls, check, build = [], dp.RunConfig.__post_init__, dp.game.GAME_REGISTRY["nash-cournot"]
    monkeypatch.setattr(dp.RunConfig, "__post_init__", lambda cfg: calls.append("check") or check(cfg))
    monkeypatch.setitem(dp.game.GAME_REGISTRY, "nash-cournot", lambda: calls.append("game") or build())
    return calls


def diverging_cournot():
    """The benchmark game with an own partial that overflows at t = 1."""
    return aggregative_copy(dp.nash_cournot(), cournot_partials(),
                            grad_own=lambda i, t, x, p: np.multiply(1e308, t + 1.0)[..., None])


class HalvedGradients(dp.GameSpec):
    """A game whose row-form gradients are half its callables'."""

    def gradients(self, t, x, psi_val):
        return super().gradients(t, x, psi_val) / 2


def halved_gradients_config():
    """A 3-agent run of a ``GameSpec`` subclass that overrides ``gradients``."""
    return dp.RunConfig(game=HalvedGradients(**game_fields(small_linear_game(3))), graph=ring_graph(3),
                        delays=dp.DelaySchedule.uniform(3), horizon=50, seed=1)


def dropping_first_message(ring_arrivals):
    """``World._arrivals`` losing one message a round: the first message of
    every round weighs nothing on the ring route alone, which in ``verify``
    is the pair's member 0."""
    def dropping(self, plan, k, snapshot):
        graph, phase = self.graph, self.graph.phase_at(plan.start + k)
        w_msg = phase.w_msg.copy()
        w_msg[0] = 0.0
        self.graph = types.SimpleNamespace(phase_at=lambda t: phase._replace(w_msg=w_msg))
        try:
            return ring_arrivals(self, plan, k, snapshot)
        finally:
            self.graph = graph
    return dropping


def density_ratio_check(b, b_prime, sigma, probes):
    """Max |log density ratio| of Laplace(b, sigma) vs Laplace(b', sigma) over
    the probe points.

    The analytic bound is ||b - b'||_1 / sigma; the returned maximum never
    exceeds it, which is the pointwise epsilon-DP witness.
    """
    b = np.atleast_1d(np.asarray(b, float))
    bp = np.atleast_1d(np.asarray(b_prime, float))
    pts = np.atleast_2d(np.asarray(probes, float))
    log_ratio = (np.abs(pts - bp[None, :]).sum(axis=1)
                 - np.abs(pts - b[None, :]).sum(axis=1)) / sigma
    return float(np.abs(log_ratio).max())


def avg_series(result):
    """Per-agent running-average of the local-estimate losses, rounds 1..T."""
    return dp.average_loss(result.loss_local[1:])


@pytest.fixture(scope="session")
def cournot():
    return dp.nash_cournot()


@pytest.fixture(scope="session")
def fig2_result():
    return dp.run(preset("fig2-baseline"))


@pytest.fixture(scope="session")
def bench_graph():
    return benchmark_graph()
