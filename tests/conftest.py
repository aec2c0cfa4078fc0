import dataclasses

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


def diverging_cournot():
    """The benchmark game with an own-gradient that overflows at t = 1."""
    return dataclasses.replace(
        dp.nash_cournot(), grad_own=lambda i, t, x, p: np.multiply(1e308, t + 1.0)[..., None])


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
