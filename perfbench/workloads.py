"""The benchmark's workloads: seeded run configs handed to the library.

Each workload maps a seed to a ``RunConfig``; the library receives
only that config. The figure workloads are the shipped presets with the
master seed replaced by the workload seed and the horizon fixed here. The
scaling workload is generated: a periodic random digraph on 20 agents with
uniform delays up to 10 rounds, Laplace noise at analytic sensitivity, and a
linear-demand game whose equilibrium has agents both on box faces and
strictly inside.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from dpgames import cli, game, graph, privacy
from dpgames.engine import RunConfig

SCALE_V = 20
SCALE_TAU = 10
SCALE_PERIOD = 4
SCALE_EXTRA_IN_EDGES = 3
SCALE_EPSILON = 0.5
SCALE_CHECK_HORIZON = 2 * SCALE_PERIOD


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: int
    fmt: str            # record format: "tabular" (CSV) or "object-lines" (JSON lines)
    fixed_epsilon: bool  # per-step epsilon is exact, so epsilon_hat == T * eps
    build: Callable[[int, int], RunConfig]
    check: Callable[[RunConfig], None] | None = None  # asserts a generated config is valid

    def config(self, seed: int, horizon: int | None = None) -> RunConfig:
        return self.build(seed, self.horizon if horizon is None else horizon)


def _preset(name: str) -> Callable[[int, int], RunConfig]:
    def build(seed: int, horizon: int) -> RunConfig:
        return replace(cli.preset(name), seed=seed, horizon=horizon)
    return build


def scale_graph(seed: int) -> graph.GraphSchedule:
    """Four edge sets on V agents, each with self-loops, the directed ring
    i -> i+1 and SCALE_EXTRA_IN_EDGES distinct extra in-edges per agent, so
    every set is strongly connected on its own.
    """
    rng = np.random.default_rng([seed, 0x5CA1E])
    V = SCALE_V
    sets = []
    for _ in range(SCALE_PERIOD):
        edges = [(i, (i + 1) % V) for i in range(V)]
        for dst in range(V):
            others = [s for s in range(V) if s not in (dst, (dst - 1) % V)]
            for src in rng.choice(others, size=SCALE_EXTRA_IN_EDGES, replace=False):
                edges.append((int(src), dst))
        sets.append(edges)
    return graph.GraphSchedule.periodic(V, sets)


def scale_game() -> game.GameSpec:
    c = [-20.0 - 5.0 * i for i in range(SCALE_V)]
    return game.linear_demand_game(c, [-5.0] * SCALE_V, [5.0] * SCALE_V,
                                   name="linear-demand-v20")


def scale_config(seed: int, horizon: int) -> RunConfig:
    return RunConfig(
        game=scale_game(), graph=scale_graph(seed),
        delays=graph.DelaySchedule.uniform(SCALE_TAU),
        noise=privacy.NoiseConfig.fixed_epsilon(SCALE_EPSILON,
                                                sensitivity_mode="analytic"),
        horizon=horizon, seed=seed, run_id="scale-v20-random-digraph")


def assert_verifies(cfg: RunConfig) -> None:
    """Assert that the verification battery passes on a generated config.

    The check runs at a short horizon that covers every edge set twice; the
    pipeline's verify stage repeats it at the full horizon.
    """
    failed = [(name, detail) for name, ok, detail
              in cli.verify_checks(replace(cfg, horizon=SCALE_CHECK_HORIZON)) if not ok]
    if failed:
        raise AssertionError(f"generated scaling config fails verify: {failed}")


WORKLOADS = {w.name: w for w in (
    Workload("fig7-delays-private", 200, "tabular", True,
             _preset("fig7-random-delays-private")),
    Workload("fig5-fixed-delay", 400, "object-lines", False,
             _preset("fig5-fixed-delay")),
    Workload("scale-v20-random-digraph", 20, "tabular", False, scale_config,
             assert_verifies),
)}
