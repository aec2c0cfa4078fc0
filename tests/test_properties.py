"""Property tests: the arrival ring against the augmented twin, exactly-once
delivery, and per-edge delays as views onto the round's delay matrix, over
random schedules, delay rules, noise modes, agent counts and delay bounds.

Examples are derandomized, so the suite runs the same cases every time.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dpgames as dp

from conftest import small_linear_game

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])


def edge_sets(V, max_sets):
    edge = st.tuples(st.integers(0, V - 1), st.integers(0, V - 1))
    return st.lists(st.lists(edge, max_size=2 * V), min_size=1, max_size=max_sets)


@st.composite
def schedules(draw, V):
    kind = draw(st.sampled_from(["static", "periodic", "procedural"]))
    sets = draw(edge_sets(V, 1 if kind == "static" else 4))
    if kind == "static":
        return dp.GraphSchedule.static(V, sets[0])
    if kind == "periodic":
        return dp.GraphSchedule.periodic(V, sets)
    return dp.GraphSchedule.procedural(V, lambda t: sets[(t * t + 1) % len(sets)])


@st.composite
def delay_schedules(draw, V, tau_max):
    kind = draw(st.sampled_from(["none", "fixed", "uniform"]))
    if kind == "none":
        return dp.DelaySchedule(tau_max)
    if kind == "uniform":
        low = draw(st.integers(0, tau_max))
        return dp.DelaySchedule.uniform(tau_max, low=low, seed=draw(st.integers(0, 2**16)))
    delay = st.integers(0, tau_max)
    pairs = st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)).filter(lambda p: p[0] != p[1])
    comm = draw(st.dictionaries(pairs, delay, max_size=2 * V))
    feedback = draw(st.dictionaries(st.integers(0, V - 1), delay, max_size=V))
    return dp.DelaySchedule.fixed(tau_max, comm=comm, feedback=feedback)


@st.composite
def run_configs(draw):
    V = draw(st.integers(2, 8))
    tau_max = draw(st.integers(0, 6))
    noise = draw(st.sampled_from(["off", "shared", "independent"]))
    # every w_ii >= 1/V, so y_ii >= V**-12 stays above the degeneracy floor
    horizon = draw(st.integers(1, 12))
    return dp.RunConfig(
        game=small_linear_game(V), graph=draw(schedules(V)),
        delays=draw(delay_schedules(V, tau_max)),
        noise=(dp.NoiseConfig.off() if noise == "off" else dp.NoiseConfig.fixed_epsilon(
            0.5, delta=1.0, shared_draw=noise == "shared")),
        horizon=horizon, x0=np.linspace(-4.0, 4.0, V)[:, None],
        cold_start=draw(st.sampled_from(["clamp", "zero"])), seed=draw(st.integers(0, 2**16)))


@PROPERTY_SETTINGS
@given(run_configs())
def test_run_equals_the_augmented_twin_and_delivers_each_message_once(cfg):
    a, b = dp.run(cfg), dp.run_augmented_reference(cfg)
    diff = max(float(np.abs(getattr(a, k) - getattr(b, k)).max()) for k in ("b", "x", "v"))
    scale = max(1.0, float(np.abs(a.b).max()), float(np.abs(a.v).max()))
    assert diff <= 1e-12 * scale
    assert a.messages_enqueued == a.messages_delivered + a.messages_pending


@PROPERTY_SETTINGS
@given(run_configs())
def test_comm_delay_is_a_view_onto_the_comm_matrix(cfg):
    V = cfg.graph.num_agents
    delays = cfg.delays.with_seed(cfg.seed)
    for t in range(min(cfg.horizon, 3)):
        D = delays.comm_matrix(t, V)
        for i in range(V):
            for j in range(V):
                assert delays.comm_delay(i, j, t) == D[i, j]
