import copy
import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import dpgames as dp
from dpgames.cli import PRESETS, preset
from dpgames.engine import (CHUNK_ROUNDS, ConfigError, DegeneracyError, NonFiniteStateError, World,
                            _AugmentedWorld, step_size)
from dpgames.privacy import STREAM_NOISE, STREAM_NOISE_AGGREGATE, substream

from conftest import (bench_init, complete_graph, count_checks_and_games, diverging_cournot,
                      dropping_first_message, game_fields, halved_gradients_config, per_agent_copy,
                      ring_graph, small_linear_game, toy_2d_game)


def bench_cfg(**kw):
    from dpgames.cli import benchmark_graph
    base = dict(game="nash-cournot", graph=benchmark_graph(), horizon=50,
                x0=bench_init(), seed=42)
    base.update(kw)
    return dp.RunConfig(**base)


# ---------------------------------------------------------------------------
# projection


def test_project_analytic_minimizer():
    assert dp.project(np.array([2.0]), 0.5, [-5.0], [5.0]) == pytest.approx([-1.0])
    assert dp.project(np.array([-20.0]), 1.0, [-5.0], [5.0]) == pytest.approx([5.0])


def test_project_nonexpansive():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        u, v = rng.normal(0, 50, 3), rng.normal(0, 50, 3)
        eta = float(rng.uniform(0.01, 3.0))
        lo, hi = np.array([-5.0, 0.0, -2.0]), np.array([5.0, 4.0, 1.0])
        d = np.linalg.norm(dp.project(u, eta, lo, hi) - dp.project(v, eta, lo, hi))
        assert d <= eta * np.linalg.norm(u - v) + 1e-12


@pytest.mark.parametrize("eta", [0.0, -1.0])
def test_project_rejects_a_step_size_that_is_not_positive(eta):
    with pytest.raises(ValueError, match=f"^step size must be positive, got {eta}$"):
        dp.project(np.array([1.0]), eta, [-5.0], [5.0])


def test_step_size_indexing():
    # producing x(1) uses gamma / sqrt(2)
    assert step_size(1.0, 1) == pytest.approx(1.0 / math.sqrt(2.0))
    assert step_size(2.0, 0) == 2.0


# ---------------------------------------------------------------------------
# single-step hand example and initialization


def test_first_step_on_complete_graph(cournot):
    cfg = dp.RunConfig(game="nash-cournot", graph=complete_graph(5), horizon=1,
                       x0=bench_init(), seed=0)
    res = dp.run(cfg)
    # v(0) = psi(x(0)); agent index 1 is the second firm
    assert res.v[0, 1, 0] == 2.0
    # b(1) = (1/5) sum_j b_j(0) + g(x(0), v(0)) / y_ii(0), b(0) = 0, y_ii(0) = 1
    g = np.stack([cournot.local_gradient(i, 0, res.x[0, i], res.v[0, i])
                  for i in range(5)])
    assert np.allclose(res.b[1], g, atol=1e-12)
    assert res.b[1, 0, 0] == pytest.approx(-806.0)
    # x(1) = clamp(-eta(1) b(1)) lands on the upper bounds
    eta1 = 1.0 / math.sqrt(2.0)
    assert np.allclose(res.x[1],
                       np.clip(-eta1 * res.b[1], cournot.box_lo, cournot.box_hi))
    assert res.x[1].ravel().tolist() == [5.0, 10.0, 8.0, 12.0, 6.0]


def test_run_horizon_zero_emits_initial_state_only():
    res = dp.run(bench_cfg(horizon=0))
    assert res.x.shape[0] == 1
    assert np.array_equal(res.x[0], bench_init())
    assert res.ledger.epsilon_hat == 0.0


def test_initial_action_outside_box_is_a_config_error():
    bad = bench_init()
    bad[0, 0] = 9.0
    with pytest.raises(ConfigError) as e:  # a ValueError
        bench_cfg(x0=bad)
    assert any("outside" in msg for msg in e.value.errors)


@pytest.mark.parametrize("field, value", [
    ("seed", True), ("seed", 3.0), ("horizon", True), ("horizon", 2.5), ("horizon", -1)])
def test_bool_or_non_integer_seed_and_horizon_are_config_errors(field, value):
    message = f"{field} must be a non-negative integer, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)) as e:
        dataclasses.replace(preset("fig5-fixed-delay"), **{"horizon": 2, field: value})
    assert e.value.errors == [message]


@pytest.mark.parametrize("field, value, message", [
    ("gamma", True, "a finite number > 0"), ("gamma", "1", "a finite number > 0"),
    ("gamma", None, "a finite number > 0"), ("b_window", True, "an integer >= 1"),
    ("b_window", 2.5, "an integer >= 1"), ("b_window", "2", "an integer >= 1")])
def test_bool_or_non_numeric_gamma_and_b_window_are_config_errors(field, value, message):
    message = f"{field} must be {message}, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)) as e:
        dataclasses.replace(preset("fig5-fixed-delay"), horizon=3, validate_connectivity=True,
                            **{field: value})
    assert e.value.errors == [message]


@pytest.mark.parametrize("field, value, message", [
    ("validate_connectivity", "no", "true or false"), ("run_id", 5, "a string"),
    ("graph", "x", "a GraphSchedule"), ("delays", "x", "a DelaySchedule"),
    ("noise", "x", "a NoiseConfig")])
def test_wrongly_typed_fields_are_config_errors(field, value, message):
    # each is the one error itemized, and no check reads the bad field first
    message = f"{field} must be {message}, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)) as e:
        dataclasses.replace(preset("fig5-fixed-delay"), horizon=3, **{field: value})
    assert e.value.errors == [message]


@pytest.mark.parametrize("field, value, message", [
    ("game", "cournot", "unknown game 'cournot'; registered: ['nash-cournot']"),
    ("graph", ring_graph(4), "graph has 4 agents, game has 5"),
    ("cold_start", "warm", "cold_start must be 'clamp' or 'zero', got 'warm'"),
    ("x0", np.zeros((4, 1)), "bad initial actions: cannot reshape"),
])
def test_fields_that_do_not_fit_the_game_are_config_errors(field, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)) as e:
        dataclasses.replace(preset("fig5-fixed-delay"), horizon=3, **{field: value})
    errors = e.value.errors
    assert len(errors) == 1 and errors[0].startswith(message)


def test_a_config_error_itemizes_what_validate_finds():
    cfg = preset("fig5-fixed-delay")
    with pytest.raises(ConfigError) as e:
        dataclasses.replace(cfg, horizon=-1)
    object.__setattr__(cfg, "horizon", -1)  # past the frozen guard, to ask validate itself
    assert e.value.errors == cfg.validate() == ["horizon must be a non-negative integer, got -1"]


def test_a_config_is_frozen():
    cfg = preset("fig5-fixed-delay")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.horizon = 3


@pytest.mark.parametrize("name", ["fig5-fixed-delay", "fig7-random-delays-private"])
def test_a_built_config_runs_without_being_checked_or_resolved_again(name, monkeypatch):
    calls = count_checks_and_games(monkeypatch)
    cfg = dataclasses.replace(preset(name), horizon=5)
    assert calls == ["game", "validate"] * 2  # the preset, then its replacement
    calls.clear()
    for execute in (dp.run, dp.run_augmented_reference, dp.engine._run_pair):
        execute(cfg)
    assert calls == []


def test_a_numpy_bool_validate_connectivity_is_accepted():
    cfg = dataclasses.replace(preset("fig5-fixed-delay"), horizon=3, validate_connectivity=np.True_)
    assert cfg.validate() == []


@pytest.mark.parametrize("gamma, b_window", [(np.float64(0.5), 2), (2, np.int64(1))])
def test_numpy_and_integer_gamma_and_b_window_are_accepted(gamma, b_window):
    cfg = dataclasses.replace(preset("fig5-fixed-delay"), horizon=3, gamma=gamma,
                              b_window=b_window, validate_connectivity=True)
    assert cfg.validate() == []


# ---------------------------------------------------------------------------
# reduction to the delay-free, noise-free recursions


def test_delay_free_noise_free_reduces_to_matrix_recursions(cournot):
    cfg = bench_cfg(horizon=30)
    res = dp.run(cfg)

    V = 5
    b = np.zeros((V, 1))
    x = bench_init()
    xh = x.copy()
    v = x.copy()  # identity psi
    Y = np.eye(V)
    for t in range(30):
        W = cfg.graph.weights_at(t)
        g = np.stack([cournot.local_gradient(i, t, x[i], v[i]) for i in range(V)])
        b = W @ b + g / np.diag(Y)[:, None]
        Y = W @ Y
        x_new = dp.project(b, step_size(1.0, t + 1), cournot.box_lo, cournot.box_hi)
        xh_new = ((t + 1) * xh + x_new) / (t + 2)
        v = W @ v + xh_new - xh
        x, xh = x_new, xh_new
    assert np.allclose(res.b[-1], b, rtol=1e-12, atol=1e-9)
    assert np.allclose(res.x[-1], x, rtol=1e-12, atol=1e-12)
    assert np.allclose(res.v[-1], v, rtol=1e-12, atol=1e-9)


# ---------------------------------------------------------------------------
# message delivery


def test_delivery_accounting_exactly_once():
    cfg = bench_cfg(horizon=120, delays=dp.DelaySchedule.uniform(4), seed=3)
    res = dp.run(cfg)
    assert res.messages_enqueued == res.messages_delivered + res.messages_pending

    # independent recount from the schedule: a message sent at s arrives at
    # s + tau_ij(s) and is delivered iff that lands inside the run
    delays = cfg.delays.with_seed(cfg.seed)
    expected_sent = expected_delivered = 0
    for s in range(cfg.horizon):
        W = cfg.graph.weights_at(s)
        for sender in range(5):
            for receiver in range(5):
                if receiver != sender and W[receiver, sender] > 0:
                    expected_sent += 1
                    if s + delays.comm_delay(receiver, sender, s) <= cfg.horizon - 1:
                        expected_delivered += 1
    assert res.messages_enqueued == expected_sent
    assert res.messages_delivered == expected_delivered


def capturing_arrivals(world):
    """The list to which ``world`` appends each round's (V, 2m) arrival sums."""
    sums, arrivals = [], world._arrivals
    world._arrivals = lambda plan, k, snapshot: sums.append(arrivals(plan, k, snapshot)) or sums[-1]
    return sums


@pytest.mark.parametrize("cls", [World, _AugmentedWorld])
def test_arrival_sums_match_indicator_enumeration(cls):
    # brute-force the double sum over senders and delay levels r; the twin's
    # first tau_max + 1 rounds also sum the zeros of slots not yet sent
    cfg = bench_cfg(horizon=40, delays=dp.DelaySchedule.uniform(3), seed=11,
                    noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0))
    world = cls(cfg)
    arrived = capturing_arrivals(world)
    delays = world.delays
    tau = delays.tau_max
    snapshots = {}
    for t in range(cfg.horizon):
        n = dp.sample_noise(5.0, (5, 1), substream(11, STREAM_NOISE, t))  # shared draw
        snapshots[t] = (world.b + n, world.v + n)
        world.step()
        sum_b, sum_v = arrived[t][:, :1], arrived[t][:, 1:]
        expect_b = np.zeros_like(sum_b)
        expect_v = np.zeros_like(sum_v)
        for r in range(0, min(t, tau) + 1):
            s = t - r
            W_s = cfg.graph.weights_at(s)
            bt, vt = snapshots[s]
            for i in range(5):
                for j in range(5):
                    if i != j and delays.comm_delay(i, j, s) == r:
                        expect_b[i] += W_s[i, j] * bt[j]
                        expect_v[i] += W_s[i, j] * vt[j]
        assert np.allclose(sum_b, expect_b, rtol=1e-12, atol=1e-12)
        assert np.allclose(sum_v, expect_v, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# state invariants


def test_running_average_identity():
    cfg = bench_cfg(horizon=300, delays=dp.DelaySchedule.uniform(5), seed=1,
                    noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0))
    res = dp.run(cfg)
    csum = np.cumsum(res.x, axis=0)
    direct = csum / np.arange(1, res.x.shape[0] + 1)[:, None, None]
    assert np.abs(res.x_hat - direct).max() <= 1e-12


def test_aggregate_conservation_doubly_stochastic():
    # complete graph on 4 agents: weights 1/4 everywhere, doubly stochastic
    game = small_linear_game(4)
    cfg = dp.RunConfig(game=game, graph=complete_graph(4), horizon=100,
                       x0=np.array([[1.0], [-2.0], [0.5], [3.0]]), seed=0)
    res = dp.run(cfg)
    for t in range(101):
        assert abs(res.v[t].sum() - res.x_hat[t].sum()) <= 1e-9


def test_aggregate_mass_in_flight_is_conserved_under_delays():
    # doubly stochastic weights, uniform delays: every round, the estimates
    # plus the v-columns of the messages still in the ring hold sum_i psi_i(x_hat_i)
    game = small_linear_game(4)
    cfg = dp.RunConfig(game=game, graph=complete_graph(4), horizon=200,
                       delays=dp.DelaySchedule.uniform(3),
                       x0=np.array([[1.0], [-2.0], [0.5], [3.0]]), seed=0)
    world = World(cfg)
    errors, scale = [], 0.0
    for _ in range(cfg.horizon + 1):
        held = world.v.sum(axis=0) + world.ring[:, :, game.dim:].sum(axis=(0, 1))
        psi = game.psi_values(world.x_hat)
        errors.append(np.abs(held - psi.sum(axis=0)).max())
        scale = max(scale, np.abs(world.v).max(), np.abs(psi).max())
        if world.t < cfg.horizon:
            world.step()
    assert max(errors) <= 1e-12 * scale
    assert world.messages_pending() > 0  # the ring carries mass at the end


@pytest.mark.parametrize("cfg", [
    dataclasses.replace(preset("fig2-baseline"), noise=dp.NoiseConfig.off()),
    # the benchmark digraph's ring and chord, fixed: unbalanced and static
    bench_cfg(graph=dp.GraphSchedule.static(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
              horizon=500),
], ids=["fig2-no-privacy", "static-unbalanced"])
def test_tracker_conserves_the_pi_weighted_aggregate(cfg):
    # with pi(t) = W(t)^T pi(t+1) from a probability vector at T:
    # pi(T)^T v(T) = pi(T)^T psi(x_hat(T)) + sum_{t<T} (pi(t) - pi(t+1))^T psi(x_hat(t))
    res = dp.run(cfg)
    psi = np.array([cfg.resolved_game().psi_values(x) for x in res.x_hat])
    T, V = cfg.horizon, cfg.graph.num_agents
    pi = np.full(V, 1.0 / V)
    lhs, rhs = pi @ res.v[T], pi @ psi[T]
    for t in range(T - 1, -1, -1):
        pi_next, pi = pi, cfg.graph.weights_at(t).T @ pi
        rhs = rhs + (pi - pi_next) @ psi[t]
    scale = max(np.abs(res.v).max(), np.abs(psi).max())
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale
    # the uniform average is not what is conserved
    assert np.abs(res.v[T].mean(axis=0) - psi[T].mean(axis=0)).max() > 1e-3 * scale


def receive_side_row_sums(cfg):
    """(T - tau_max, V): w_ii(t) + sum_{j != i} sum_r W_ij(t - r) I{D_ij(t - r) = r}
    for the rounds t >= tau_max, whose every relay stage has been sent:
    the weight agent i's round-t update gives the snapshots arriving then.
    """
    T, V = cfg.horizon, cfg.graph.num_agents
    delays = cfg.delays.with_seed(cfg.seed)
    received = np.zeros((T + delays.tau_max + 1, V))
    w_self = np.empty((T, V))
    for s in range(T):
        W = cfg.graph.weights_at(s)
        w_self[s] = W.diagonal()
        i, j = np.nonzero(W - np.diag(W.diagonal()))
        np.add.at(received, (s + delays.comm_matrix(s, V)[i, j], i), W[i, j])
    return (w_self + received[:T])[delays.tau_max:]


def test_estimates_agree_under_fixed_delays_and_not_under_uniform_ones():
    # send-time weighting keeps every receive-side row sum at 1 under fig5's
    # fixed delay, so the estimates agree; under fig6's uniform delays the
    # row sums range over [1/3, 10/3] and the estimates stay apart
    fig5, fig6 = preset("fig5-fixed-delay"), preset("fig6-random-delays")
    T = fig5.horizon
    assert T == fig6.horizon == 2000 and not (fig5.noise.enabled or fig6.noise.enabled)
    rows = receive_side_row_sums(fig5)
    assert np.all(rows == 1.0)
    assert np.ptp(dp.run(fig5).v[T]) < 1e-5
    rows = receive_side_row_sums(fig6)
    assert rows.min() == pytest.approx(1 / 3) and rows.max() == pytest.approx(10 / 3)
    assert np.mean(rows != 1.0) > 0.5
    assert np.ptp(dp.run(fig6).v[T]) > 1.0


def test_actions_always_feasible():
    cfg = bench_cfg(horizon=200, delays=dp.DelaySchedule.uniform(6), seed=5,
                    noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0))
    res = dp.run(cfg)
    game = cfg.resolved_game()
    assert np.all(res.x >= game.box_lo[None]) and np.all(res.x <= game.box_hi[None])


def test_y_rows_mix_and_diagonal_floor():
    cfg = bench_cfg(horizon=250)
    world = World(cfg)
    assert np.array_equal(world.Y, np.eye(5))
    for _ in range(250):
        world.step()
    assert world.Y.min() >= 0.0 and world.Y.max() <= 1.0
    assert np.abs(world.Y.sum(axis=1) - 1.0).max() < 1e-12
    # the floor is read from the records: row t is diag Y(t), checked by round t < T
    res = dp.run(cfg)
    assert res.min_y_diag > 0
    assert res.min_y_diag == res.y_diag[:-1].min()
    # rows approach a common vector
    spread = world.Y.max(axis=0) - world.Y.min(axis=0)
    assert spread.max() < 1e-6


def test_degeneracy_error_without_self_loops():
    # pure swap graph: y_11(1) = 0
    sched = dp.GraphSchedule.static(2, [(0, 1), (1, 0)], require_self_loops=False)
    game = small_linear_game(2)
    cfg = dp.RunConfig(game=game, graph=sched, horizon=5, x0=np.zeros((2, 1)), seed=0)
    with pytest.raises(DegeneracyError):
        dp.run(cfg)


def test_y_ii_decays_exponentially_in_the_diameter_until_degeneracy():
    # 80 agents, each hearing itself and its two predecessors: before round
    # 40 an agent's only walk back to itself is to stay put, so y_ii(t) = 3^-t
    V = 80
    sched = dp.GraphSchedule.static(V, [((i - k) % V, i) for i in range(V) for k in (1, 2)])
    assert dp.eigenvector_floor(sched, 31) == pytest.approx(3.0 ** -31, rel=1e-9)
    cfg = dp.RunConfig(game=small_linear_game(V), graph=sched, horizon=40, seed=0)
    with pytest.raises(DegeneracyError, match=r"y_ii = 5\.397e-16 at t=32;"):
        dp.run(cfg)
    # the plan of rounds 0 .. 39 refuses round 32 when it is built, before round 0 runs
    world = World(cfg)
    with pytest.raises(DegeneracyError, match=r"y_ii = 5\.397e-16 at t=32; self-loop structure violated"):
        world.step()
    assert world.t == 0


def test_cold_start_zero_reads_a_zero_slot_of_the_gradient_ring():
    # agents whose feedback reaches before round 0 read the ring's last slot,
    # which no round writes
    cfg = dataclasses.replace(preset("fig7-random-delays-private"), horizon=300, cold_start="zero")
    world = World(cfg)
    slots = len(world.ring)
    assert world.grad_ring.shape[0] == slots + 1
    zero_reads = 0
    for t in range(cfg.horizon):
        world.step()
        plan = world._plan
        skipped = plan.rows[t - plan.start] == slots
        assert np.array_equal(skipped, world.delays.feedback_delays(t, world.V) > t), t
        zero_reads += int(skipped.sum())
        assert not world.grad_ring[slots].any(), t
    assert zero_reads > 0


def test_update_does_not_approach_an_equilibrium_off_the_box_corners():
    # a pinned limit, not a goal: the executed update mixes the agents' dual
    # variables, so on a game whose equilibrium is neither box corner the
    # actions stay a box width away and the dynamic regret grows linearly
    # (README, "Known limit: equilibria off the box corners")
    V, T = 20, 2000
    game = dp.linear_demand_game([-20.0 - 5.0 * i for i in range(V)], [-5.0] * V, [5.0] * V)
    res = dp.run(dp.RunConfig(game=game, graph=ring_graph(V), horizon=2 * T))
    sols = dp.solve_equilibria(game, range(2 * T + 1))
    x_star = sols[0].x_star
    assert np.abs(x_star).min() < 1e-9  # agent 5 sits at 0, inside its box
    assert np.abs(res.x[T] - x_star).max() > 9.0  # measured 10.0, the box width
    regret = dp.dynamic_regret(game, res.x, sols).cumulative
    assert regret[2 * T] / regret[T] == pytest.approx(2.0, abs=0.1)  # measured 1.96


# ---------------------------------------------------------------------------
# noise handling


def _noise_blocks(world, t):
    """Round t's noise for the duals and the aggregate estimates: the noised
    snapshot of zero duals and estimates, to which adding is exact."""
    world.b, world.v = np.zeros_like(world.b), np.zeros_like(world.v)
    return world._noised(t)


def test_noise_disabled_noises_nothing():
    world = World(bench_cfg())
    b_tilde, v_tilde = world._noised(7)
    assert b_tilde is world.b and v_tilde is world.v


def test_shared_draw_uses_one_vector_per_agent_step():
    shared = World(bench_cfg(noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0)))
    n_b, n_v = _noise_blocks(shared, 4)
    assert np.array_equal(n_b, n_v)
    indep = World(bench_cfg(noise=dp.NoiseConfig.fixed_epsilon(
        0.2, delta=1.0, shared_draw=False)))
    n_b2, n_v2 = _noise_blocks(indep, 4)
    assert np.array_equal(n_b, n_b2)  # dual-variable stream unchanged
    assert not np.array_equal(n_b2, n_v2)


@pytest.mark.parametrize("shared", [True, False])
def test_noised_snapshot_adds_the_round_blocks(shared):
    world = World(bench_cfg(noise=dp.NoiseConfig.fixed_epsilon(
        0.2, delta=1.0, shared_draw=shared)))
    aggregate = STREAM_NOISE if shared else STREAM_NOISE_AGGREGATE
    for t in (0, 4, 33):
        n_b, n_v = _noise_blocks(world, t)
        assert n_b.shape == n_v.shape == (5, 1)
        assert np.array_equal(n_b, dp.sample_noise(5.0, (5, 1), substream(42, STREAM_NOISE, t)))
        assert np.array_equal(n_v, dp.sample_noise(5.0, (5, 1), substream(42, aggregate, t)))


@pytest.mark.parametrize("execute", [dp.run, dp.run_augmented_reference])
@pytest.mark.parametrize("sensitivity", ["manual", "analytic"])
def test_noise_scale_is_resolved_once_per_run(execute, sensitivity, monkeypatch):
    deltas, resolve = [], dp.NoiseConfig.resolve
    monkeypatch.setattr(dp.NoiseConfig, "resolve",
                        lambda self, delta: deltas.append(delta) or resolve(self, delta))
    res = execute(bench_cfg(horizon=30, noise=dp.NoiseConfig.fixed_epsilon(
        0.2, delta=1.0, sensitivity_mode=sensitivity)))
    assert len(deltas) == 1
    assert [r[1:3] for r in res.ledger.records] == [resolve(res.config.noise, deltas[0])] * 30


@pytest.mark.parametrize("world_class", [World, _AugmentedWorld])
@pytest.mark.parametrize("preset_name, per_round", [
    ("fig7-random-delays-private", 3),  # noise block, comm matrix, feedback vector
    ("fig5-fixed-delay", 0),            # fixed delays and no noise draw nothing
])
def test_one_generator_per_purpose_and_round(preset_name, per_round, world_class, monkeypatch):
    from dpgames import engine, graph, privacy
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return privacy.substream(*args)

    monkeypatch.setattr(engine, "substream", counting)
    monkeypatch.setattr(graph, "substream", counting)
    cfg = bench_cfg(**{k: getattr(preset(preset_name), k) for k in ("delays", "noise")})
    world = world_class(cfg)
    purposes = {key[0] for key in calls}
    for t in range(cfg.horizon):
        world.step()
        # a round plan draws its chunk's delays ahead of the rounds it
        # covers: every round stepped has its blocks, none drawn twice
        assert len(set(calls)) == len(calls) >= per_round * (t + 1)
        purposes |= {key[0] for key in calls}
        assert {(p, s) for p in purposes for s in range(t + 1)} <= set(calls)
    # keyed by (purpose, round) only, and nothing drawn past the horizon
    assert len(calls) == per_round * cfg.horizon
    assert all(len(key) == 2 and key[1] < cfg.horizon for key in calls)


def _stepped_states(worlds, rounds):
    """Step the worlds in turn, one round each; every world's (x, b, v)
    after each round."""
    states = [[] for _ in worlds]
    for _ in range(rounds):
        for world, rows in zip(worlds, states):
            world.step()
            rows.append(np.concatenate((world.x, world.b, world.v), axis=1))
    return [np.stack(rows) for rows in states]


@pytest.mark.parametrize("cold_start", ["clamp", "zero"])
def test_round_plans_across_chunk_boundaries_match_a_world_stepped_by_hand(cold_start):
    T = 2 * CHUNK_ROUNDS + 3
    cfg = bench_cfg(horizon=T, delays=dp.DelaySchedule.uniform(4), seed=3, cold_start=cold_start,
                    noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0))
    res = dp.run(cfg)
    world, plans = World(cfg), set()
    for t in range(T + 9):  # nine rounds past the horizon
        world.step()
        plans.add(world._plan[:2])
        if world.t <= T:
            for name in ("x", "x_hat", "v", "b"):
                assert np.array_equal(getattr(world, name), getattr(res, name)[world.t]), (t, name)
    ends = [0, CHUNK_ROUNDS, 2 * CHUNK_ROUNDS, T]
    assert sorted(plans) == list(zip(ends, ends[1:])) + [(s, s + 1) for s in range(T, T + 9)]

    # a world stepped past its horizon keeps the rounds of a longer run
    longer = dp.run(dataclasses.replace(cfg, horizon=T + 9))
    for name in ("x", "x_hat", "v", "b"):
        assert np.array_equal(getattr(world, name), getattr(longer, name)[-1]), name
    assert (world.messages_enqueued, world.messages_delivered) == (
        longer.messages_enqueued, longer.messages_delivered)

    twin = dp.run_augmented_reference(cfg)
    diff = max(float(np.abs(getattr(res, k) - getattr(twin, k)).max()) for k in ("b", "x", "v"))
    scale = max(1.0, float(np.abs(res.b).max()), float(np.abs(res.v).max()))
    assert diff <= 1e-12 * scale


@pytest.mark.parametrize("execute", [dp.run, dp.run_augmented_reference])
def test_records_do_not_depend_on_the_chunk_length(execute, monkeypatch):
    # (tau_max + 1) V^2 + V = 180 floats a round: a cap of 540 plans three
    # rounds at a time
    cfg = bench_cfg(horizon=40, delays=dp.DelaySchedule.uniform(6), seed=8,
                    noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0))
    whole = execute(cfg)
    monkeypatch.setattr(dp.engine, "CHUNK_DELAYS", 540)
    assert World(cfg)._build_plan(0)[:2] == (0, 3)
    chunked = execute(cfg)
    for name in ("x", "x_hat", "v", "b", "y_diag"):
        assert np.array_equal(getattr(whole, name), getattr(chunked, name)), name
    assert whole.summary() | {"wall_time_s": 0} == chunked.summary() | {"wall_time_s": 0}


@pytest.mark.parametrize("pair", ["two-seeds", "world-and-twin"])
def test_worlds_stepped_alternately_match_each_run_alone(pair):
    # each (seed, purpose) has one shared generator; a world must draw its
    # blocks the same whoever else draws from the same streams in between
    cfg = bench_cfg(delays=preset("fig7-random-delays-private").delays,
                    noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0, shared_draw=False))
    if pair == "two-seeds":
        made = [(World, cfg), (World, dataclasses.replace(cfg, seed=43))]
    else:
        made = [(World, cfg), (_AugmentedWorld, cfg)]
    together = _stepped_states([cls(c) for cls, c in made], 30)
    for (cls, c), states in zip(made, together):
        assert np.array_equal(states, _stepped_states([cls(c)], 30)[0])


@pytest.mark.parametrize("cls", [World, _AugmentedWorld])
@pytest.mark.parametrize("cfg", [
    dataclasses.replace(preset("fig5-fixed-delay"), horizon=60),
    dataclasses.replace(preset("fig7-random-delays-private"), horizon=60),
    bench_cfg(horizon=60, cold_start="zero", seed=5,
              delays=dp.DelaySchedule(3, {"type": "uniform", "high": 2}, {"type": "uniform", "high": 3})),
], ids=["fig5", "fig7", "cold-start-zero"])
def test_a_deep_copy_steps_exactly_like_the_original(cfg, cls):
    # A7 steps deep copies of a world; every ring must survive the copy
    # with its own storage
    world = cls(cfg)
    for _ in range(7):
        world.step()
    twin = copy.deepcopy(world)
    names = ("b", "x", "v", "ring", "grad_ring") + (("carried",) if cls is _AugmentedWorld else ())
    for _ in range(30):
        world.step()
        twin.step()
        for name in names:
            assert np.array_equal(getattr(world, name), getattr(twin, name)), (world.t, name)
    assert world.ring is not twin.ring and world.grad_ring is not twin.grad_ring


def test_noise_stream_determinism_across_runs():
    cfg = bench_cfg(horizon=60, noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0))
    a, b = dp.run(cfg), dp.run(cfg)
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.x, b.x)


def test_analytic_sensitivity_uses_measured_floor(cournot):
    cfg = bench_cfg(horizon=40, noise=dp.NoiseConfig.fixed_epsilon(
        0.2, sensitivity_mode="analytic"))
    world = World(cfg)
    floor = dp.eigenvector_floor(cfg.graph, 40)
    expected = dp.sensitivity_bound(cournot.L, 1.0 / floor, 1)
    assert world._delta == pytest.approx(expected)


def test_ledger_fills_per_step():
    cfg = bench_cfg(horizon=25, noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0))
    res = dp.run(cfg)
    assert len(res.ledger.records) == 25
    assert res.ledger.epsilon_hat == pytest.approx(5.0)


@pytest.mark.parametrize("sensitivity, delta, delta_t", [("manual", 2.0, 2.0),
                                                         ("analytic", None, 44550.0)])
def test_sigma_mode_keeps_sigma_and_records_the_resolved_sensitivity(sensitivity, delta,
                                                                     delta_t, cournot):
    cfg = dataclasses.replace(preset("fig2-baseline"), horizon=10, noise=dp.NoiseConfig(
        "sigma", sigma=4.0, sensitivity_mode=sensitivity, delta=delta))
    if sensitivity == "analytic":
        floor = dp.eigenvector_floor(cfg.graph, 10)
        assert dp.sensitivity_bound(cournot.L, 1.0 / floor, 1) == delta_t
    ledger = dp.run(cfg).ledger
    assert ledger.entries() == [{"rounds": 10, "delta": delta_t, "sigma": 4.0,
                                 "epsilon": delta_t / 4.0}]
    assert ledger.epsilon_hat == 10 * delta_t / 4.0  # 5.0 with the manual delta


# ---------------------------------------------------------------------------
# feedback delays and cold start


def test_feedback_delay_uses_stored_state(cournot):
    cfg = bench_cfg(horizon=10, delays=dp.DelaySchedule.fixed(
        3, feedback={i: 3 for i in range(5)}))
    res = dp.run(cfg)
    # at t = 5 every agent used its state from t = 2 and the time-2 cost
    world = World(cfg)
    for _ in range(5):
        world.step()
    # replicate the t=5 dual update by hand for agent 0
    xs, vs = res.x[2], res.v[2]
    g = cournot.local_gradient(0, 2, xs[0], vs[0])
    W5 = cfg.graph.weights_at(5)
    arrived = np.zeros(1)
    for j in range(1, 5):
        if W5[0, j] > 0:
            arrived += W5[0, j] * res.b[5, j]  # no comm delays, no noise
    expected = W5[0, 0] * res.b[5, 0] + arrived + g / res.y_diag[5, 0]
    assert np.allclose(res.b[6, 0], expected, rtol=1e-12)


def test_cold_start_modes_differ_before_history_exists(cournot):
    delays = dp.DelaySchedule.fixed(2, feedback={i: 2 for i in range(5)})
    clamp = dp.run(bench_cfg(horizon=1, delays=delays, cold_start="clamp"))
    zero = dp.run(bench_cfg(horizon=1, delays=delays, cold_start="zero"))
    # clamp evaluates the round-0 gradient, zero skips it
    g0 = np.stack([cournot.local_gradient(i, 0, clamp.x[0, i], clamp.v[0, i])
                   for i in range(5)])
    assert np.allclose(clamp.b[1], g0, atol=1e-12)
    assert np.array_equal(zero.b[1], np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# augmented-reference equivalence


def test_augmented_reference_equals_run_when_delay_free():
    cfg = bench_cfg(horizon=40)
    a, b = dp.run(cfg), dp.run_augmented_reference(cfg)
    assert np.abs(a.b - b.b).max() < 1e-9
    assert np.array_equal(a.x, b.x)


def test_augmented_reference_fixed_delay_ring():
    game = small_linear_game(3)
    sched = ring_graph(3)
    delays = dp.DelaySchedule.fixed(2, comm={(1, 0): 1})
    cfg = dp.RunConfig(game=game, graph=sched, delays=delays, horizon=50,
                       x0=np.array([[1.0], [0.0], [-1.0]]), seed=2)
    a, b = dp.run(cfg), dp.run_augmented_reference(cfg)
    for field in ("b", "x", "v"):
        assert np.abs(getattr(a, field) - getattr(b, field)).max() < 1e-9


def test_augmented_reference_random_delays_with_noise():
    cfg = bench_cfg(horizon=150, delays=dp.DelaySchedule.uniform(2), seed=13,
                    noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0))
    a, b = dp.run(cfg), dp.run_augmented_reference(cfg)
    for field in ("b", "x", "v"):
        assert np.abs(getattr(a, field) - getattr(b, field)).max() < 1e-9


def test_two_dimensional_actions_full_loop():
    # the action paths are (V, m) arrays throughout; exercise m = 2
    game = toy_2d_game()
    V, m, lo, hi = game.num_agents, game.dim, game.box_lo, game.box_hi
    cfg = dp.RunConfig(game=game, graph=ring_graph(3),
                       delays=dp.DelaySchedule.uniform(2),
                       noise=dp.NoiseConfig.fixed_epsilon(0.5, delta=1.0),
                       horizon=60, x0=np.zeros((V, m)), seed=3)
    a, b = dp.run(cfg), dp.run_augmented_reference(cfg)
    assert a.x.shape == (61, 3, 2)
    assert np.abs(a.b - b.b).max() < 1e-9
    assert np.all(a.x >= lo[None]) and np.all(a.x <= hi[None])
    sol = dp.ne_oracle(game, 0, tol=1e-10)
    assert dp.kkt_max_violation(game, 0, sol.x_star) <= 1e-8


def _pair_configs():
    """Every preset at T = 300 in both cold-start modes, the benchmark's
    workloads at seeds 7 and 1, independent noise draws, a game of
    one-agent-at-a-time callables, and m = 2."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    for name in PRESETS:
        for cold_start in ("clamp", "zero"):
            yield f"{name}-{cold_start}", dataclasses.replace(
                preset(name), horizon=300, cold_start=cold_start)
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for seed in (7, 1):
            yield f"{name}-seed{seed}", workload.config(seed)
    fig7 = preset("fig7-random-delays-private")
    yield "fig7-independent-draws", dataclasses.replace(
        fig7, horizon=300, noise=dataclasses.replace(fig7.noise, shared_draw=False))
    yield "per-agent-callables", bench_cfg(game=per_agent_copy(dp.nash_cournot()), horizon=60,
                                           delays=fig7.delays, noise=fig7.noise)
    game = toy_2d_game()
    yield "two-dimensional", dp.RunConfig(
        game=game, graph=ring_graph(3), delays=dp.DelaySchedule.uniform(2),
        noise=dp.NoiseConfig.fixed_epsilon(0.5, delta=1.0), horizon=60,
        x0=np.zeros((game.num_agents, game.dim)), seed=3)


def _assert_member(rec, member, result):
    """Member ``member`` of the pair's records equals ``result``'s records, byte for byte."""
    for name in ("x", "x_hat", "v", "b"):
        x, y = rec[name][:, member], getattr(result, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert rec["y_diag"].shape == result.y_diag.shape
    assert rec["y_diag"].tobytes() == result.y_diag.tobytes()


@pytest.mark.parametrize("cfg", [pytest.param(c, id=n) for n, c in _pair_configs()])
def test_the_lockstep_pair_equals_each_route_run_alone(cfg):
    rec = dp.engine._run_pair(cfg)
    assert set(rec) == {"x", "x_hat", "v", "b", "y_diag"}
    _assert_member(rec, 0, dp.run(cfg))
    _assert_member(rec, 1, dp.run_augmented_reference(cfg))


def test_a_message_the_ring_drops_leaves_the_pairs_relay_member_alone(monkeypatch):
    # the routes share only what both read: a fault in the ring route moves
    # member 0 and leaves member 1 equal to the twin run alone
    cfg = dataclasses.replace(preset("fig7-random-delays-private"), horizon=50)
    monkeypatch.setattr(World, "_arrivals", dropping_first_message(World._arrivals))
    rec = dp.engine._run_pair(cfg)
    _assert_member(rec, 1, dp.run_augmented_reference(cfg))
    assert np.abs(rec["b"][:, 0] - rec["b"][:, 1]).max() > 1.0


def test_the_lockstep_pair_steps_the_configs_own_game():
    # the pair calls the config's game object, so a subclass's override holds
    # on both members exactly as it does in each route run alone
    cfg = halved_gradients_config()
    rec, alone = dp.engine._run_pair(cfg), dp.run(cfg)
    _assert_member(rec, 0, alone)
    _assert_member(rec, 1, dp.run_augmented_reference(cfg))
    base = dp.run(dataclasses.replace(cfg, game=small_linear_game(3)))
    assert np.abs(alone.b - base.b).max() > 1.0  # the override moves the run


# ---------------------------------------------------------------------------
# batched delayed gradients, post-loop losses, finite-state check


@pytest.mark.parametrize("runner, rows", [(dp.run, 5), (dp.run_augmented_reference, 5),
                                          (dp.engine._run_pair, 10)],
                         ids=["run", "run_augmented_reference", "_run_pair"])
def test_one_batched_gradient_call_per_round(monkeypatch, runner, rows):
    # the verify pair makes its one call on both members' 2V rows
    calls = []
    game = dp.nash_cournot()

    def counting_gradient_fn(i, t, x, psi_val):
        calls.append(np.shape(i))
        return game.gradient_fn(i, t, x, psi_val)

    def no_local_gradient(*args):
        raise AssertionError("the engine must not evaluate agents one at a time")

    monkeypatch.setattr(dp.GameSpec, "local_gradient", no_local_gradient)
    cfg = dataclasses.replace(preset("fig7-random-delays-private"), horizon=25,
                              game=dataclasses.replace(game, gradient_fn=counting_gradient_fn))
    runner(cfg)
    assert calls == [(rows,)] * 25


@pytest.mark.parametrize("cold_start", ["clamp", "zero"])
def test_each_round_evaluates_its_own_gradient_once_at_its_scalar_time(cold_start):
    # the delay falls on the gradient, not on the state: round t's gradient is
    # computed at time t and read tau_i(t) rounds later from the gradient ring,
    # in run, in the twin and in verify's lockstep pair alike
    times = []
    game = dp.nash_cournot()

    def counting_gradient_fn(i, t, x, psi_val):
        times.append(t)
        return game.gradient_fn(i, t, x, psi_val)

    cfg = dataclasses.replace(preset("fig7-random-delays-private"), horizon=40, cold_start=cold_start,
                              game=dataclasses.replace(game, gradient_fn=counting_gradient_fn))
    World(cfg)
    assert times == []  # building a world evaluates no gradient
    for runner in (dp.run, dp.run_augmented_reference, dp.engine._run_pair):
        runner(cfg)
        assert times == list(range(40)) and all(np.ndim(t) == 0 for t in times)
        times.clear()


def test_one_aggregate_map_call_per_round():
    # psi(x_hat) of the previous round is carried, not evaluated again
    calls = []
    game = dp.nash_cournot()

    def counting_psi(i, x):
        calls.append(np.shape(i))
        return game.psi_fn(i, x)

    cfg = dataclasses.replace(preset("fig5-fixed-delay"), horizon=25,
                              game=dataclasses.replace(game, psi_fn=counting_psi))
    world = World(cfg)
    assert calls == [(5,)]  # v(0) = psi(x(0))
    for _ in range(25):
        world.step()
    assert calls == [(5,)] * 26


@pytest.mark.parametrize("cold_start", ["zero", "clamp"])
def test_cold_start_with_uniform_feedback_delays_matches_hand_reference(cournot, cold_start):
    # tau_i(t) reaches tau_max = 3, so a gradient ring one slot short, or a
    # slot read at t - tau_i(t) without the clamp to round 0, reads the wrong round
    delays = dp.DelaySchedule(3, {"type": "none"}, {"type": "uniform", "low": 0, "high": 3})
    cfg = bench_cfg(horizon=30, delays=delays, cold_start=cold_start, seed=5)
    res = dp.run(cfg)
    feedback = cfg.delays.with_seed(cfg.seed)
    skipped = used = 0
    for t in range(cfg.horizon):
        tau = feedback.feedback_delays(t, 5)
        g = np.zeros((5, 1))
        for i in range(5):
            s = t - int(tau[i])
            if s < 0:
                skipped += 1  # before round 0: a zero gradient, or round 0's under clamp
            if s >= 0 or cold_start == "clamp":
                s = max(s, 0)
                g[i] = cournot.local_gradient(i, s, res.x[s, i], res.v[s, i])
                used += 1
        # no comm delays and no noise: the arrivals are the in-neighbors' b(t)
        expected = cfg.graph.weights_at(t) @ res.b[t] + g / res.y_diag[t][:, None]
        np.testing.assert_allclose(res.b[t + 1], expected, rtol=1e-12, atol=1e-9)
    assert skipped > 0 and used > 100


class _KeepsGradients(dp.GameSpec):
    """A game that keeps, in ``blocks``, every block its row-form gradients return."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "blocks", [])

    def gradients(self, t, x, psi_val):
        self.blocks.append(super().gradients(t, x, psi_val))
        return self.blocks[-1]


@pytest.mark.parametrize("world", [World, _AugmentedWorld, dp.engine._PairWorld])
def test_a_round_without_delayed_feedback_reads_the_game_gradient_block_itself(monkeypatch, world):
    # fig5 has no feedback rule: every agent reads round t's own gradients,
    # so the round needs no gather from the gradient ring
    cfg = dataclasses.replace(preset("fig5-fixed-delay"), horizon=70,
                              game=_KeepsGradients(**game_fields(dp.nash_cournot())),
                              cold_start="zero")
    read, delayed = [], world._delayed_gradients
    monkeypatch.setattr(world, "_delayed_gradients",
                        lambda self, plan, k: read.append(delayed(self, plan, k)) or read[-1])
    dp.engine._records(world(cfg))
    assert len(read) == len(cfg.game.blocks) == 70
    assert all(g is block for g, block in zip(read, cfg.game.blocks))


@pytest.mark.parametrize("cold_start", ["zero", "clamp"])
def test_rounds_with_and_without_delayed_feedback_equal_the_hand_reference_exactly(cold_start):
    # tau_i(t) in {0, 1} on two agents: some rounds delay no agent's
    # feedback, others delay one or both, and both kinds share the gradient ring
    delays = dp.DelaySchedule(1, {"type": "none"}, {"type": "uniform", "low": 0, "high": 1})
    cfg = dp.RunConfig(game=small_linear_game(2, box=50.0), graph=complete_graph(2), delays=delays,
                       horizon=40, seed=3, cold_start=cold_start, x0=np.array([[-7.0], [11.0]]))
    game, feedback = cfg.resolved_game(), cfg.delays.with_seed(cfg.seed)
    res, twin = dp.run(cfg), dp.run_augmented_reference(cfg)
    pair = dp.engine._run_pair(cfg)
    current = 0
    for t in range(cfg.horizon):
        tau = feedback.feedback_delays(t, 2)
        current += not tau.any()
        W, b, y = cfg.graph.weights_at(t), res.b[t], res.y_diag[t]
        g = np.zeros((2, 1))
        for i in range(2):
            if t >= tau[i] or cold_start == "clamp":
                s = max(t - int(tau[i]), 0)
                g[i] = game.local_gradient(i, s, res.x[s, i], res.v[s, i])
        # no comm delays and no noise: agent i's one arrival is W_ij b_j(t)
        expected = W.diagonal()[:, None] * b + (W[[0, 1], [1, 0]][:, None] * b[::-1]) + g / y[:, None]
        assert np.array_equal(res.b[t + 1], expected), t
    assert 0 < current < cfg.horizon
    for name in ("b", "x", "v"):
        for route in (getattr(twin, name), pair[name][:, 0], pair[name][:, 1]):
            assert np.array_equal(route, getattr(res, name))


@pytest.mark.parametrize("cfg", [
    dataclasses.replace(preset("fig7-random-delays-private"), horizon=40),
    # 20 agents: an exact aggregate summed pairwise would round differently
    dp.RunConfig(game=small_linear_game(20), graph=ring_graph(20), horizon=15,
                 delays=dp.DelaySchedule.uniform(2), seed=9,
                 x0=np.linspace(-4.0, 4.0, 20)[:, None]),
], ids=["fig7", "linear-20"])
def test_losses_after_the_loop_equal_per_round_costs(cfg):
    res = dp.run(cfg)
    game = cfg.resolved_game()
    for t in range(cfg.horizon + 1):
        x = res.x[t]
        assert np.array_equal(res.loss_local[t], game.costs(t, x, res.v[t]))
        exact = np.broadcast_to(game.aggregate(x), x.shape)
        assert np.array_equal(res.loss_true[t], game.costs(t, x, exact))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
@pytest.mark.parametrize("execute", [dp.run, dp.run_augmented_reference, dp.engine._run_pair])
def test_non_finite_state_raises_naming_round_and_agent(execute):
    cfg = dataclasses.replace(preset("fig5-fixed-delay"), horizon=6, game=diverging_cournot())
    with pytest.raises(NonFiniteStateError, match="round 2, agent 0"):
        execute(cfg)


# ---------------------------------------------------------------------------
# per-phase values


class _AugmentCutTwin(_AugmentedWorld):
    """The twin with each plan's blocks replaced, round by round, by blocks
    cut from the top block row of ``augment(W(t), D(t))``, block 0's
    diagonal zeroed. ``rounds`` lists the rounds it cut.
    """

    def __init__(self, config):
        super().__init__(config)
        self.rounds = []

    def _build_plan(self, start):
        plan = super()._build_plan(start)
        V, slots = self.V, len(self.carried)
        for k, t in enumerate(range(plan.start, plan.stop)):
            A = dp.augment(self.graph.weights_at(t), self.delays.comm_matrix(t, V), slots - 1)
            self._blocks[k] = A[:V].reshape(V, slots, V).swapaxes(0, 1)
            np.fill_diagonal(self._blocks[k, 0], 0.0)
            self.rounds.append(t)
        return plan


@pytest.mark.parametrize("name, horizon, builds", [
    ("fig5-fixed-delay", 50, 1), ("fig5-fixed-delay", 2 * CHUNK_ROUNDS + 3, 3),
    ("fig7-random-delays-private", 50, 1), ("fig7-random-delays-private", 2 * CHUNK_ROUNDS + 3, 3)])
def test_twin_builds_delay_blocks_once_per_chunk(name, horizon, builds, monkeypatch):
    # fixed and drawn delays alike: one batched build for each round plan
    built, augmented = [], []
    blocks, augment = dp.engine._delay_blocks, dp.graph.augment
    monkeypatch.setattr(dp.engine, "_delay_blocks", lambda *args: built.append(args) or blocks(*args))
    for module in (dp.graph, dp.engine):  # every binding the twin could resolve
        monkeypatch.setattr(module, "augment", lambda *args: augmented.append(args) or augment(*args),
                            raising=False)
    dp.run_augmented_reference(dataclasses.replace(preset(name), horizon=horizon))
    assert [len(weights) for weights, _, _ in built] == [CHUNK_ROUNDS] * (builds - 1) + [
        horizon - CHUNK_ROUNDS * (builds - 1)]
    assert augmented == []


def test_delays_come_from_one_builder_call_per_chunk_and_purpose(monkeypatch):
    # fig7 at T = 131: chunks [0, 64), [64, 128) and [128, 131), each with one
    # comm and one feedback call, and a one-round view goes through the builder too
    calls, builder = [], dp.DelaySchedule._delays
    monkeypatch.setattr(dp.DelaySchedule, "_delays",
                        lambda self, *args: calls.append(args) or builder(self, *args))
    dp.run(dataclasses.replace(preset("fig7-random-delays-private"), horizon=131))
    chunks = [(0, 64), (64, 128), (128, 131)]
    assert calls == [(name, *chunk, 5) for chunk in chunks for name in ("comm", "feedback")]
    calls.clear()
    dp.DelaySchedule.uniform(10, seed=3).comm_matrix(7, 5)
    assert calls == [("comm", 7, 8, 5)]


def test_a_chunks_delay_blocks_stay_within_the_cap():
    # 40 agents, tau_max 10: 11 * 40^2 + 40 = 17640 floats a round, so a
    # chunk plans 59 rounds and its blocks stay within CHUNK_DELAYS floats
    V = 40
    cfg = dp.RunConfig(game=small_linear_game(V), graph=ring_graph(V),
                       delays=dp.DelaySchedule.uniform(10), horizon=100)
    twin = _AugmentedWorld(cfg)
    twin.step()
    K = dp.engine.CHUNK_DELAYS // (11 * V * V + V)
    assert twin._plan[:2] == (0, K) and K < CHUNK_ROUNDS
    assert twin._blocks.shape == (K, 11, V, V)
    assert twin._blocks.size + K * V <= dp.engine.CHUNK_DELAYS


@pytest.mark.parametrize("name", ["fig5-fixed-delay", "fig7-random-delays-private"])
def test_twin_equals_a_twin_whose_blocks_are_cut_from_augment(name):
    cfg = dataclasses.replace(preset(name), horizon=2 * CHUNK_ROUNDS + 3)
    twin = dp.run_augmented_reference(cfg)
    cut = _AugmentCutTwin(cfg)
    expected = dp.engine._execute(cut, 0.0)
    assert cut.rounds == list(range(cfg.horizon))  # the override supplied every round's blocks
    for field in ("b", "x", "x_hat", "v", "y_diag"):
        assert np.array_equal(getattr(twin, field), getattr(expected, field)), field


def test_procedural_schedule_alternating_edge_sets_matches_hand_reference(cournot):
    # a rule t -> edges listed round by round: each round must use its own
    # edge set's message list, as one kept from the other edge set would
    # send to the wrong receivers
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    sets = [ring + [(0, 2), (1, 3)], ring + [(2, 0), (4, 1), (3, 1)]]
    T, V = 40, 5
    graph = dp.GraphSchedule.periodic(5, [sets[t % 2] for t in range(T)])
    delays = dp.DelaySchedule.fixed(2, comm={(3, 1): 2, (0, 2): 1, (1, 4): 1})
    res = dp.run(bench_cfg(graph=graph, delays=delays, horizon=T))

    b, x = np.zeros((V, 1)), bench_init()
    xh, v, Y = x.copy(), x.copy(), np.eye(V)  # identity psi
    inbox = {}  # arrival round -> stacked (sum_b, sum_v)
    for t in range(T):
        A = np.eye(V)
        for src, dst in sets[t % 2]:
            A[dst, src] = 1.0
        W = A / A.sum(axis=1, keepdims=True)
        for i in range(V):
            for j in range(V):
                if i != j and W[i, j] > 0:
                    sums = inbox.setdefault(t + delays.comm_delay(i, j, t), np.zeros((2, V, 1)))
                    sums[0, i] += W[i, j] * b[j]
                    sums[1, i] += W[i, j] * v[j]
        sum_b, sum_v = inbox.pop(t, np.zeros((2, V, 1)))
        g = np.stack([cournot.local_gradient(i, t, x[i], v[i]) for i in range(V)])
        w_self = np.diag(W)[:, None]
        b_new = w_self * b + sum_b + g / np.diag(Y)[:, None]
        Y = W @ Y
        x_new = dp.project(b_new, step_size(1.0, t + 1), cournot.box_lo, cournot.box_hi)
        xh_new = ((t + 1) * xh + x_new) / (t + 2)
        v = w_self * v + sum_v + xh_new - xh
        b, x, xh = b_new, x_new, xh_new
        np.testing.assert_allclose(res.b[t + 1], b, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(res.x[t + 1], x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(res.v[t + 1], v, rtol=1e-12, atol=1e-9)
    assert res.messages_enqueued == sum(len(sets[t % 2]) for t in range(T))


@pytest.mark.parametrize("cls", [World, _AugmentedWorld])
@pytest.mark.parametrize("name, blocks_repeat", [("fig5-fixed-delay", True),
                                                 ("fig6-random-delays", False)])
def test_arrivals_use_the_send_rounds_delay_blocks(name, blocks_repeat, cls):
    """The engine weights a message with the delay blocks of the round it
    was sent in: round t's arrivals are sum_r W^r(t - r) b(t - r), not the
    sum_r W^r(t) b(t - r) of a chain of ``augment(W(t), D(t))``. The two
    agree when each round's blocks equal those of r rounds earlier, as under
    fig5's fixed delay on its period-2 schedule, and not under fig6's
    uniform delays. The arrival ring and the twin alike.
    """
    cfg = dataclasses.replace(preset(name), horizon=60)
    assert not cfg.noise.enabled  # the sent snapshot is b itself
    world = cls(cfg)
    sums = capturing_arrivals(world)
    V, S = world.V, world.delays.tau_max + 1

    def blocks(s):  # (S, V, V) delay blocks of round s, read from augment's top block row
        top = dp.augment(cfg.graph.weights_at(s), world.delays.comm_matrix(s, V), S - 1)[:V]
        out = top.reshape(V, S, V).swapaxes(0, 1).copy()
        out[0][np.diag_indices(V)] = 0.0  # self terms use the raw value
        return out

    sent, block, gap_send, gap_receive, scale = [], [], 0.0, 0.0, 1.0
    for t in range(cfg.horizon):
        sent.append(world.b.copy())
        block.append(blocks(t))
        world.step()
        arrived = sums[t][:, :world.m]
        stages = range(min(t, S - 1) + 1)
        at_send = sum(block[t - r][r] @ sent[t - r] for r in stages)
        at_receive = sum(block[t][r] @ sent[t - r] for r in stages)
        gap_send = max(gap_send, float(np.abs(arrived - at_send).max()))
        gap_receive = max(gap_receive, float(np.abs(at_send - at_receive).max()))
        scale = max(scale, float(np.abs(world.b).max()))
    assert gap_send <= 1e-12 * scale
    if blocks_repeat:
        assert gap_receive == 0.0
    else:
        assert gap_receive > 1e-2 * scale
