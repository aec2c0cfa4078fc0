"""Property tests: the arrival ring against the augmented twin, exactly-once
delivery, and per-edge delays as views onto the round's delay matrix, over
random schedules, delay rules, noise modes, agent counts and delay bounds;
and the delay blocks' scatter against the comparison it replaced.

Examples are derandomized, so the suite runs the same cases every time.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dpgames as dp

from conftest import small_linear_game

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])


def edge_sets(V, max_sets):
    edge = st.tuples(st.integers(0, V - 1), st.integers(0, V - 1))
    return st.lists(st.lists(edge, max_size=2 * V), min_size=1, max_size=max_sets)


@st.composite
def schedules(draw, V):
    kind = draw(st.sampled_from(["static", "periodic", "rule"]))
    sets = draw(edge_sets(V, 1 if kind == "static" else 4))
    if kind == "static":
        return dp.GraphSchedule.static(V, sets[0])
    if kind == "periodic":
        return dp.GraphSchedule.periodic(V, sets)
    # a rule t -> edges: (t * t + 1) mod n repeats with period n
    return dp.GraphSchedule.periodic(V, [sets[(t * t + 1) % len(sets)] for t in range(len(sets))])


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


def reference_blocks(W, D, tau_max):
    """The delay blocks as they were built before the scatter: every delay compared with every stage."""
    return np.where(D[..., None, :, :] == np.arange(tau_max + 1)[:, None, None], W[..., None, :, :], 0.0)


@st.composite
def weights_and_delays(draw):
    V, tau_max = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    shape = draw(st.sampled_from([(V, V), (draw(st.integers(1, 6)), V, V)]))
    # zeros of both signs, so that a weight written as 0.0 in place of -0.0 shows
    W = draw(hnp.arrays(float, shape, elements=st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])))
    D = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, tau_max)))
    return W, D, tau_max


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@PROPERTY_SETTINGS
@given(weights_and_delays())
def test_delay_blocks_equal_the_stage_by_stage_comparison_bit_for_bit(case):
    W, D, tau_max = case
    assert same_bits(dp.graph._delay_blocks(W, D, tau_max), reference_blocks(W, D, tau_max))
    if W.ndim == 3:  # each round of a batch is the blocks of its own (V, V) pair
        for W_k, D_k in zip(W, D):
            assert same_bits(dp.graph._delay_blocks(W_k, D_k, tau_max), reference_blocks(W_k, D_k, tau_max))

    # augment's top block row is the blocks side by side, as it was
    V, S = W.shape[-1], tau_max + 1
    W, D = np.abs(W.reshape(-1, V, V)[-1]) + np.eye(V), D.reshape(-1, V, V)[-1].copy()
    W /= W.sum(axis=1, keepdims=True)
    np.fill_diagonal(D, 0)
    expected = np.zeros((V * S, V * S))
    expected[:V] = reference_blocks(W, D, tau_max).transpose(1, 0, 2).reshape(V, -1)
    expected[np.arange(V, V * S), np.arange(V * S - V)] = 1.0
    assert same_bits(dp.augment(W, D, tau_max), expected)
