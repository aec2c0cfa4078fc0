import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

import dpgames as dp
from dpgames import privacy
from dpgames.cli import config_from_dict, config_to_dict, preset
from dpgames.graph import DelayRangeError, DiagnosticsError, ScheduleError

from conftest import complete_graph, ring_graph, small_linear_game


def test_weights_in_neighborhood_of_two():
    # in-neighborhood {i, j} -> both weighted 1/2
    sched = dp.GraphSchedule.static(3, [(1, 0), (2, 2)], require_self_loops=True)
    W = sched.weights_at(0)
    assert W[0, 0] == 0.5 and W[0, 1] == 0.5
    assert W[0, 2] == 0.0


def test_weights_self_loop_only():
    sched = dp.GraphSchedule.static(2, [(0, 1)])
    W = sched.weights_at(5)
    # agent 0 hears only itself
    assert W[0].tolist() == [1.0, 0.0]


def test_benchmark_unreliable_edge_absent_at_odd_t():
    from dpgames.cli import benchmark_graph
    sched = benchmark_graph()
    assert sched.weights_at(0)[3, 1] > 0
    assert sched.weights_at(1)[3, 1] == 0.0
    assert sched.weights_at(2)[3, 1] > 0


def test_empty_in_neighborhood_is_an_error():
    with pytest.raises(ScheduleError, match=r"edge set 0 leaves agent\(s\) \[0\]"):
        dp.GraphSchedule.static(2, [(0, 1)], require_self_loops=False)  # no in-edge of 0


def test_weights_are_built_once_per_phase_and_read_only():
    from dpgames.cli import benchmark_graph
    sched = benchmark_graph()
    period = len(sched.edge_sets)
    for t in range(period):
        W = sched.weights_at(t)
        assert sched.weights_at(t + period) is W
        with pytest.raises(ValueError):
            W[0, 0] = 0.5
    static = complete_graph(3)
    assert static.weights_at(0) is static.weights_at(7)
    assert not static.weights_at(0).flags.writeable


def test_phase_lists_messages_sender_by_sender_once_per_edge_set(bench_graph):
    for t in range(2):
        phase = bench_graph.phase_at(t)
        assert bench_graph.phase_at(t + 2) is phase and bench_graph.weights_at(t) is phase.weights
        assert all(not a.flags.writeable for a in phase[1:])
        W = phase.weights
        messages = [(j, i) for j in range(5) for i in range(5) if i != j and W[i, j] > 0]
        assert list(zip(phase.sender.tolist(), phase.receiver.tolist())) == messages
        assert phase.w_msg.tolist() == [[W[i, j]] for j, i in messages]
    assert len(bench_graph.phase_at(0).sender) == len(bench_graph.phase_at(1).sender) + 1


@pytest.mark.parametrize("make, error, message", [
    (lambda: dp.GraphSchedule.periodic(2, []), ScheduleError, "a schedule needs at least one edge set"),
    (lambda: ring_graph(3).phase_at(-1), ScheduleError, "time index -1 < 0"),
    (lambda: dp.DelaySchedule(2, comm={"type": "poisson"}), DelayRangeError,
     "unknown delay rule type 'poisson'"),
    (lambda: dp.DelaySchedule.uniform(2).comm_matrix(0, 3), DelayRangeError,
     "randomized delay schedule used before its seed was resolved"),
    (lambda: dp.validate_b_connectivity(ring_graph(3), 0, 5), ScheduleError,
     "connectivity window must be >= 1, got 0"),
    (lambda: dp.mixing_diagnostics(ring_graph(3), dp.DelaySchedule.none(), 4), DiagnosticsError,
     "horizon 4 too short for mixing diagnostics"),
    (lambda: dp.eigenvector_floor(dp.GraphSchedule.static(2, [(0, 1), (1, 0)], require_self_loops=False),
                                  3), ScheduleError, "y_ii reached zero; schedule lacks self-loops"),
], ids=["no-edge-sets", "negative-round", "unknown-rule", "unseeded-draw", "window-0",
        "short-mixing-horizon", "no-self-loops"])
def test_each_schedule_fault_raises_its_own_error(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_empty_in_neighborhood_raises_at_its_phase_every_time():
    # raised at construction, naming the first edge set that leaves an agent
    # without in-neighbors, before any round reaches it
    good, bad = [(0, 0), (1, 1)], [(0, 1), (1, 1)]
    with pytest.raises(ScheduleError, match=r"edge set 1 leaves agent\(s\) \[0\]"):
        dp.GraphSchedule.periodic(2, [good, bad, good, bad], require_self_loops=False)
    sched = dp.GraphSchedule.periodic(2, [good, good], require_self_loops=False)
    assert sched.phase_at(1) is sched.phase_at(0)  # one phase per distinct edge set


def test_row_stochastic_and_self_loop_floor():
    from dpgames.cli import benchmark_graph
    sched = benchmark_graph()
    for t in range(64):
        W = sched.weights_at(t)
        assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12
        assert W.min() >= 0.0 and W.max() <= 1.0
        assert np.diag(W).min() >= 1.0 / sched.num_agents


def test_b_connectivity_static_ring():
    assert dp.validate_b_connectivity(ring_graph(5), 1, 50).ok


def test_b_connectivity_alternating_two_agents():
    # {0->1} at even t, {1->0} at odd t, plus self-loops
    sched = dp.GraphSchedule.periodic(2, [[(0, 1)], [(1, 0)]])
    assert dp.validate_b_connectivity(sched, 2, 40).ok
    rep = dp.validate_b_connectivity(sched, 1, 40)
    assert not rep.ok
    assert rep.first_violation == (0, 0)


def test_b_connectivity_disconnected_pair():
    pair = dp.GraphSchedule.static(2, [])  # self-loops only
    # 0 reaches every agent but nobody reaches 0: weakly, not strongly, connected
    chain = dp.GraphSchedule.static(3, [(0, 1), (1, 2)])
    for sched in (pair, chain):
        for b in (1, 2, 5):
            rep = dp.validate_b_connectivity(sched, b, 20)
            assert not rep.ok
            assert rep.first_violation == (0, b - 1)


def test_b_connectivity_reports_a_violation_late_in_a_long_cycle():
    # edge set 280 of 300 cuts the ring edge 4 -> 0; the horizon covers the cycle six times
    ring = [(i, (i + 1) % 5) for i in range(5)]
    sched = dp.GraphSchedule.periodic(5, [ring[:-1] if k == 280 else ring for k in range(300)])
    rep = dp.validate_b_connectivity(sched, 1, 2000)
    assert not rep.ok
    assert rep.first_violation == (280, 280)


def test_augment_no_delay_is_identity_embedding():
    W = complete_graph(4).weights_at(0)
    A = dp.augment(W, np.zeros((4, 4), dtype=int), 0)
    assert np.array_equal(A, W)


def test_augment_size_and_block_placement():
    sched = complete_graph(5)
    W = sched.weights_at(0)
    D = np.zeros((5, 5), dtype=int)
    D[3, 1] = 1
    A = dp.augment(W, D, 2)
    assert A.shape == (15, 15)  # V' = V + tau*V
    # the delayed weight moves from block 0 to block 1
    assert A[3, 1] == 0.0
    assert A[3, 5 + 1] == W[3, 1]
    # virtual chain shifts
    assert A[5 + 2, 2] == 1.0 and A[10 + 2, 5 + 2] == 1.0


def test_augment_blocks_partition_weights_and_stay_row_stochastic():
    rng = np.random.default_rng(3)
    from dpgames.cli import benchmark_graph
    sched = benchmark_graph()
    tau = 3
    for t in range(12):
        W = sched.weights_at(t)
        D = rng.integers(0, tau + 1, size=(5, 5))
        np.fill_diagonal(D, 0)
        A = dp.augment(W, D, tau)
        assert np.abs(A.sum(axis=1) - 1.0).max() <= 1e-12
        recovered = sum(A[:5, r * 5:(r + 1) * 5] for r in range(tau + 1))
        assert np.array_equal(recovered, W)


def test_augment_rejects_out_of_range_delay():
    W = complete_graph(3).weights_at(0)
    D = np.zeros((3, 3), dtype=int)
    D[0, 1] = 4
    with pytest.raises(DelayRangeError):
        dp.augment(W, D, 3)
    D[0, 1] = 0
    D[1, 1] = 1  # self delay must be zero
    with pytest.raises(DelayRangeError):
        dp.augment(W, D, 3)


def _raised(fn, *args):
    with pytest.raises(Exception) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


def test_delay_blocks_reject_what_augment_rejects_with_the_same_error():
    W = complete_graph(3).weights_at(0)
    D = np.zeros((3, 3), dtype=int)
    out_of_range, self_delay = D.copy(), D.copy()
    out_of_range[0, 1] = 4
    self_delay[1, 1] = 1
    bad = [((W[:2], D, 3), ValueError, "weights must be square, got (2, 3)"),
           ((W * 1.5, D, 3), ValueError, "weights matrix is not row stochastic"),
           ((W, out_of_range, 3), DelayRangeError, "delay entries span [0, 4], outside [0, 3]"),
           ((W, -out_of_range, 3), DelayRangeError, "delay entries span [-4, 0], outside [0, 3]"),
           ((W, self_delay, 3), DelayRangeError, "self delays tau_ii must be zero"),
           ((W, D[:2], 3), ValueError, "delays must match weights shape, got (2, 3)")]
    for args, error, message in bad:
        assert _raised(dp.augment, *args) == (error, message)


def test_delay_blocks_partition_the_weights():
    rng = np.random.default_rng(5)
    for _ in range(50):
        V, tau = int(rng.integers(1, 8)), int(rng.integers(0, 6))
        W = rng.random((V, V)) * (rng.random((V, V)) < 0.6) + np.eye(V)
        W /= W.sum(axis=1, keepdims=True)
        D = rng.integers(0, tau + 1, size=(V, V))
        np.fill_diagonal(D, 0)
        # augment's top block row, cut into its tau + 1 blocks
        blocks = dp.augment(W, D, tau)[:V].reshape(V, tau + 1, V).swapaxes(0, 1)
        assert blocks.shape == (tau + 1, V, V)
        assert np.array_equal(blocks.sum(axis=0), W)
        # each positive weight sits in block D[i, j] and nowhere else
        assert np.array_equal((blocks != 0).sum(axis=0), (W != 0).astype(int))
        i, j = np.indices((V, V))
        assert np.array_equal(blocks[D, i, j], W)


def test_augment_equals_one_broadcast_where_plus_relays():
    # the formula augment used before it was built from delay blocks
    def reference(W, D, tau_max):
        V, S = len(W), tau_max + 1
        A = np.zeros((V * S, V * S))
        A[:V] = np.where(D == np.arange(S)[:, None, None], W, 0.0).transpose(1, 0, 2).reshape(V, -1)
        relay = np.arange(V, V * S)
        A[relay, relay - V] = 1.0
        return A

    rng = np.random.default_rng(17)
    for _ in range(500):
        V, tau = int(rng.integers(1, 9)), int(rng.integers(0, 8))
        W = rng.random((V, V)) * (rng.random((V, V)) < 0.5) + np.eye(V) * rng.random()
        W /= W.sum(axis=1, keepdims=True)
        D = rng.integers(0, tau + 1, size=(V, V))
        np.fill_diagonal(D, 0)
        assert np.array_equal(dp.augment(W, D, tau), reference(W, D, tau))


def test_backward_products_contract_to_rank_one():
    # row range of the backward product is nonincreasing and -> 0
    rng = np.random.default_rng(11)
    for V, tau in ((3, 1), (5, 3), (6, 2)):
        edges = [(i, (i + 1) % V) for i in range(V)]
        sched = dp.GraphSchedule.static(V, edges)
        delays = dp.DelaySchedule.uniform(tau, seed=int(rng.integers(1 << 30)))
        P = np.eye(V * (tau + 1))
        first_range = None
        prev_range = np.inf
        for t in range(200):
            P = dp.augment(sched.weights_at(t), delays.comm_matrix(t, V), tau) @ P
            rng_now = (P.max(axis=0) - P.min(axis=0)).max()
            if first_range is None:
                first_range = rng_now
            assert rng_now <= prev_range + 1e-12
            prev_range = rng_now
        assert prev_range < min(1e-3, 1e-2 * first_range)


def test_y_diagonal_stays_positive():
    from dpgames.cli import benchmark_graph
    assert dp.eigenvector_floor(benchmark_graph(), 300) > 0
    assert dp.eigenvector_floor(complete_graph(5), 100) == pytest.approx(0.2)


def test_mixing_uniform_pi_on_doubly_stochastic_graph():
    md = dp.mixing_diagnostics(complete_graph(5), dp.DelaySchedule.none(), 40)
    assert np.abs(md.pi_trace - 0.2).max() < 1e-12
    assert 0 < md.lambda_hat < 1


def test_mixing_ring_fit_quality():
    sched = ring_graph(3)
    md = dp.mixing_diagnostics(sched, dp.DelaySchedule.none(), 80)
    assert 0 < md.lambda_hat < 1
    assert md.r_squared > 0.95

    # independent oracle: for a static delay-free schedule the backward
    # product of length k is the explicit matrix power W^k, and pi is the
    # left Perron vector of W
    W = sched.weights_at(0)
    vals, vecs = np.linalg.eig(W.T)
    pi = np.real(vecs[:, np.argmax(np.real(vals))])
    pi = pi / pi.sum()
    powers = [np.linalg.matrix_power(W, k) for k in range(1, 81)]
    expected_devs = np.array([np.abs(P - pi[None, :]).max() for P in powers])
    mask = expected_devs > 1e-12
    assert np.allclose(md.deviations[mask], expected_devs[mask], rtol=1e-6)
    assert np.allclose(md.pi_trace[0], pi, atol=1e-9)

    # deviations really decay like C * lambda^k
    k = np.arange(1, len(md.deviations) + 1)
    pred = md.c_hat * md.lambda_hat ** k
    mask = md.deviations > 1e-14
    assert np.abs(np.log(pred[mask]) - np.log(md.deviations[mask])).max() < 1.0


def test_mixing_benchmark_real_agent_floor(bench_graph):
    delays = dp.DelaySchedule.fixed(2, comm={(3, 1): 2})
    md = dp.mixing_diagnostics(bench_graph, delays, 80)
    assert md.min_pi_real > 0
    trace_sums = md.pi_trace.sum(axis=1)
    assert np.abs(trace_sums - 1.0).max() < 1e-12
    # virtual stages with no mass at some t sit at exactly zero
    assert md.min_pi_all == 0.0


def test_mixing_keeps_no_per_round_matrix():
    # 20 agents with tau_max 10: an augmented matrix is 220 x 220 floats
    # (0.37 MiB), so keeping every round's matrix and product for 100
    # rounds would take about 75 MiB
    rng = np.random.default_rng(7)
    ring = [(i, (i + 1) % 20) for i in range(20)]
    sets = [ring + [(int(src), dst) for dst in range(20)
                    for src in rng.choice([s for s in range(20) if s not in (dst, (dst - 1) % 20)],
                                          size=3, replace=False)]
            for _ in range(4)]
    graph, delays = dp.GraphSchedule.periodic(20, sets), dp.DelaySchedule.uniform(10, seed=7)
    tracemalloc.start()
    try:
        md = dp.mixing_diagnostics(graph, delays, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert md.min_pi_real > 0
    assert peak < 8 * 2 ** 20


def test_mixing_rejects_disconnected_schedule():
    sched = dp.GraphSchedule.static(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    with pytest.raises(DiagnosticsError):
        dp.mixing_diagnostics(sched, dp.DelaySchedule.none(), 60)


def test_delay_bounds_and_self_delay():
    d = dp.DelaySchedule.uniform(4, seed=7)
    for t in range(30):
        for i in range(4):
            assert d.comm_delay(i, i, t) == 0
            assert 0 <= d.feedback_delay(i, t) <= 4
            for j in range(4):
                assert 0 <= d.comm_delay(i, j, t) <= 4


def test_delay_schedule_rejects_out_of_range():
    with pytest.raises(DelayRangeError):
        dp.DelaySchedule.fixed(2, comm={(0, 1): 3})
    with pytest.raises(DelayRangeError):
        dp.DelaySchedule(2, comm={"type": "uniform", "low": 0, "high": 5})
    with pytest.raises(DelayRangeError, match="^comm uniform low 3 exceeds high 1$"):
        dp.DelaySchedule.uniform(4, low=3, high=1)
    dp.DelaySchedule.uniform(2 ** 31 - 1)  # the largest range the 32-bit draw covers
    with pytest.raises(DelayRangeError, match=r"tau_max must lie in \[0, 2\^31\), got 2147483648"):
        dp.DelaySchedule(2 ** 31)


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(tau_max=2.5), DelayRangeError, "tau_max must lie in [0, 2^31), got 2.5"),
    (dict(tau_max=np.float64(3.0)), DelayRangeError, f"tau_max must lie in [0, 2^31), got {np.float64(3.0)!r}"),
    (dict(tau_max=True, comm={"type": "uniform", "low": 0, "high": 1}), DelayRangeError,
     "tau_max must lie in [0, 2^31), got True"),
    (dict(tau_max=2, seed=1.5), ValueError, "delay seed must be a non-negative integer, got 1.5"),
    (dict(tau_max=2, seed=True), ValueError, "delay seed must be a non-negative integer, got True"),
    (dict(tau_max=3, comm="uniform"), DelayRangeError, "comm rule must be a dict, got 'uniform'"),
    (dict(tau_max=3, feedback=["none"]), DelayRangeError, "feedback rule must be a dict, got ['none']"),
])
def test_delay_schedule_rejects_a_scalar_that_is_not_an_integer(kwargs, error, message):
    # never truncated or coerced, and a bool is not an integer
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        dp.DelaySchedule(**kwargs)


@pytest.mark.parametrize("num_agents", [5.0, True, 0, -1, "3"])
def test_graph_schedule_rejects_an_agent_count_that_is_not_a_positive_integer(num_agents):
    message = f"num_agents must be an integer >= 1, got {num_agents!r}"
    with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
        dp.GraphSchedule.static(num_agents, [(0, 0)])


def test_schedules_take_numpy_integer_scalars():
    delays = dp.DelaySchedule.uniform(np.int64(3), seed=np.int64(4))
    assert delays.comm_matrix(0, 3).max() <= 3
    assert dp.GraphSchedule.static(np.int64(2), [(0, 1)]).weights_at(0)[1].tolist() == [0.5, 0.5]


@pytest.mark.parametrize("comm, feedback, message", [
    ({3: 1}, {}, "comm entry key 3 is not a pair of integers"),
    ({(1, 2, 3): 1}, {}, r"comm entry key \(1, 2, 3\) is not a pair of integers"),
    ({}, {(1, 2): 1}, r"feedback entry key \(1, 2\) is not an integer"),
    ({(True, 1): 1}, {}, r"comm entry key \(True, 1\) is not a pair of integers"),
    ({}, {True: 1}, "feedback entry key True is not an integer"),
], ids=["int-comm-key", "triple-comm-key", "pair-feedback-key", "bool-comm-key", "bool-feedback-key"])
def test_malformed_fixed_key_is_a_delay_range_error_naming_rule_and_key(comm, feedback, message):
    rule = lambda entries: {"type": "fixed", "entries": entries} if entries else {"type": "none"}
    with pytest.raises(DelayRangeError, match=f"^{message}$"):
        dp.DelaySchedule(3, rule(comm), rule(feedback))
    # well-formed keys naming agents outside [0, V) still build, and validation itemizes them
    delays = dp.DelaySchedule(3, rule({(7, 1): 1}), rule({9: 2}))
    assert delays.entry_errors(5) == ["comm delay entry [7, 1, 1] names an agent outside [0, 5)",
                                      "feedback delay entry [9, 2] names an agent outside [0, 5)"]


@pytest.mark.parametrize("comm, feedback, message", [
    ({(0, 1): 1.5}, None, r"comm entry \(0, 1\) 1.5 is not an integer in \[0, 2\]"),
    (None, {0: True}, r"feedback entry 0 True is not an integer in \[0, 2\]"),
    ({3: 1}, None, "comm entry key 3 is not a pair of integers"),
], ids=["float-comm-delay", "bool-feedback-delay", "int-comm-key"])
def test_fixed_builds_no_coerced_rule(comm, feedback, message):
    # the entries reach the rule's checks as given, not through int()
    with pytest.raises(DelayRangeError, match=f"^{message}$"):
        dp.DelaySchedule.fixed(2, comm=comm, feedback=feedback)


def test_numpy_integer_entries_are_kept_as_python_ints():
    i = np.int64
    delays = dp.DelaySchedule(3, {"type": "fixed", "entries": {(i(7), i(1)): i(1), (i(2), i(0)): i(3)}},
                              {"type": "fixed", "entries": {i(9): i(2)}})
    assert delays.entry_errors(5) == ["comm delay entry [7, 1, 1] names an agent outside [0, 5)",
                                      "feedback delay entry [9, 2] names an agent outside [0, 5)"]
    assert [(type(r), type(s), type(d)) for (r, s), d in delays.comm["entries"].items()] == [(int,) * 3] * 2
    assert [(type(a), type(d)) for a, d in delays.feedback["entries"].items()] == [(int, int)]
    cfg = dataclasses.replace(preset("fig5-fixed-delay"), delays=dp.DelaySchedule.fixed(
        2, comm={(i(3), i(1)): i(2)}, feedback={i(0): i(1)}))
    written = config_to_dict(cfg)["delays"]
    rows = written["comm"]["entries"] + written["feedback"]["entries"]
    assert rows == [[3, 1, 2], [0, 1]] and {type(v) for row in rows for v in row} == {int}
    assert config_to_dict(config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))) == config_to_dict(cfg)


def test_random_delays_are_order_independent():
    a = dp.DelaySchedule.uniform(5, seed=123)
    b = dp.DelaySchedule.uniform(5, seed=123)
    queries = [(i, j, t) for t in (0, 3, 17) for i in range(3) for j in range(3)]
    first = [a.comm_delay(i, j, t) for (i, j, t) in queries]
    second = [b.comm_delay(i, j, t) for (i, j, t) in reversed(queries)]
    assert first == list(reversed(second))
    assert any(first)  # not degenerate


@pytest.mark.parametrize("V", [3, 5, 20])
def test_comm_delay_is_a_view_onto_the_round_matrix(V):
    d = dp.DelaySchedule.uniform(6, seed=19)
    for t in (0, 1, 9, 250):
        D = d.comm_matrix(t, V)
        assert D.shape == (V, V) and not np.diag(D).any()
        assert D.min() >= 0 and D.max() <= 6
        for i in range(V):
            for j in range(V):
                assert d.comm_delay(i, j, t) == D[i, j]
        # shell-by-shell layout: every smaller matrix is the top-left block
        assert np.array_equal(d.comm_matrix(t, V - 1), D[:V - 1, :V - 1])
        assert np.array_equal(d.comm_matrix(t, 20)[:V, :V], D)


@pytest.mark.parametrize("seed", [0, 19, 2 ** 40])
@pytest.mark.parametrize("n", [5, 25, 400])
@pytest.mark.parametrize("low, high", [(0, 10), (4, 9), (0, 3 * 2 ** 30)],
                         ids=["0-10", "4-9", "forced-rejection"])
def test_batched_draw_equals_the_generators_integers(seed, n, low, high, monkeypatch):
    # numpy's bounded-integer rule rejects about a quarter of the words on
    # [0, 3 * 2^30], so there the rounds it redraws with ``integers`` run too
    from dpgames import graph, privacy
    calls = []
    monkeypatch.setattr(graph, "substream", lambda *key: calls.append(key) or privacy.substream(*key))
    d = dp.DelaySchedule.uniform(10, seed=seed)
    rule = {"type": "uniform", "low": low, "high": high}
    for start, stop in ((0, 6), (2 ** 33 - 2, 2 ** 33 + 1)):
        calls.clear()
        out = d._draw(rule, privacy.STREAM_COMM_DELAY, start, stop, n)
        expected = [privacy.substream(seed, privacy.STREAM_COMM_DELAY, t).integers(
            low, high + 1, size=n) for t in range(start, stop)]
        assert out.dtype == expected[0].dtype and np.array_equal(out, expected)
        if high == 3 * 2 ** 30:
            assert len(calls) > stop - start  # rounds redrawn
        else:
            assert len(calls) == stop - start


def test_feedback_delay_is_a_view_onto_the_round_vector():
    d = dp.DelaySchedule.uniform(6, seed=19)
    for t in (0, 3, 77):
        tau = d.feedback_delays(t, 20)
        assert tau.shape == (20,) and 0 <= tau.min() and tau.max() <= 6
        assert [d.feedback_delay(i, t) for i in range(20)] == tau.tolist()
        assert np.array_equal(d.feedback_delays(t, 5), tau[:5])
    assert d.feedback_delays(0, 20).tolist() != d.feedback_delays(1, 20).tolist()


def test_fixed_delay_blocks_and_entries_a_run_would_ignore():
    d = dp.DelaySchedule.fixed(3, comm={(3, 1): 2, (7, 1): 1, (2, 2): 1},
                               feedback={0: 1, 9: 3})
    D = d.comm_matrix(4, 5)
    assert D[3, 1] == 2 and D.sum() == 2  # (7, 1) lies outside, (2, 2) is a self-delay
    assert d.feedback_delays(4, 5).tolist() == [1, 0, 0, 0, 0]
    errors = d.entry_errors(5)
    assert len(errors) == 3
    assert "[2, 2, 1]" in errors[0] and "self-delay" in errors[0]
    assert "[7, 1, 1]" in errors[1] and "[9, 3]" in errors[2]
    assert dp.DelaySchedule.fixed(3, comm={(3, 1): 2}, feedback={4: 1}).entry_errors(5) == []
    assert dp.DelaySchedule.uniform(3).entry_errors(5) == []


def _hand_built(delays, t, V):
    """Round t's comm matrix and feedback vector, built entry by entry: a
    uniform rule's comm draws fill the shells max(i, j) = 0, 1, .. in turn,
    each with (k, 0) .. (k, k - 1) and then (0, k) .. (k, k)."""
    D, tau = np.zeros((V, V), dtype=int), np.zeros(V, dtype=int)
    if delays.comm["type"] == "uniform":
        rule = delays.comm
        draws = privacy.substream(delays.seed, privacy.STREAM_COMM_DELAY, t).integers(
            rule["low"], rule["high"] + 1, size=V * V)
        cells = [c for k in range(V) for c in [(k, j) for j in range(k)] + [(i, k) for i in range(k + 1)]]
        for (i, j), d in zip(cells, draws):
            D[i, j] = d if i != j else 0
    for (i, j), d in delays.comm.get("entries", {}).items():
        if i < V and j < V and i != j:
            D[i, j] = d
    if delays.feedback["type"] == "uniform":
        rule = delays.feedback
        tau = privacy.substream(delays.seed, privacy.STREAM_FEEDBACK_DELAY, t).integers(
            rule["low"], rule["high"] + 1, size=V)
    for i, d in delays.feedback.get("entries", {}).items():
        if i < V:
            tau[i] = d
    return D, tau


def _assert_one_round_views_are_chunk_entries(delays, V):
    """``comm_matrix`` and ``feedback_delays`` hold the hand-built delays and
    equal entry t - s of ``_delays`` over the chunks [0, 64) and [t, t + 3)."""
    for t in (0, 1, 2, 7, 63):
        D, tau = delays.comm_matrix(t, V), delays.feedback_delays(t, V)
        expect_D, expect_tau = _hand_built(delays, t, V)
        assert D.dtype == expect_D.dtype and np.array_equal(D, expect_D)
        assert tau.dtype == expect_tau.dtype and np.array_equal(tau, expect_tau)
        for s, stop in ((0, 64), (t, t + 3)):
            chunk_D, chunk_tau = (delays._delays(name, s, stop, V) for name in ("comm", "feedback"))
            assert chunk_D.shape == (stop - s, V, V) and chunk_tau.shape == (stop - s, V)
            assert np.array_equal(chunk_D[t - s], D) and np.array_equal(chunk_tau[t - s], tau)
    return D, tau


@pytest.mark.parametrize("delays", [
    dp.DelaySchedule.none(),
    dp.DelaySchedule(3),
    dp.DelaySchedule.fixed(3, comm={(3, 1): 2, (0, 4): 3, (6, 1): 1}, feedback={1: 2, 4: 3, 8: 1}),
    dp.DelaySchedule(3, {"type": "fixed", "entries": {(2, 0): 1}}, {"type": "none"}),
], ids=["none", "tau_max-3", "fixed", "fixed-comm-only"])
def test_constant_delay_rule_returns_one_read_only_array_per_agent_count(delays):
    # the one builder broadcasts one read-only matrix and vector over the
    # rounds of a chunk; a one-round view is its entry 0
    for V in (5, 9):
        D, tau = _assert_one_round_views_are_chunk_entries(delays, V)
        assert not D.flags.writeable and not tau.flags.writeable
        for name in ("comm", "feedback"):
            assert not delays._delays(name, 0, 64, V).flags.writeable
        assert np.array_equal(delays.comm_matrix(10 ** 6, V), D)


@pytest.mark.parametrize("V", [5, 9])
def test_uniform_delay_rule_views_are_entries_of_the_drawn_chunk(V):
    delays = dp.DelaySchedule.uniform(6, low=1, seed=19)
    D, tau = _assert_one_round_views_are_chunk_entries(delays, V)
    assert (D[~np.eye(V, dtype=bool)] >= 1).all() and tau.min() >= 1
    # comm only: the feedback rule builds zeros
    comm_only = dp.DelaySchedule(6, delays.comm, {"type": "none"}, seed=19)
    assert np.array_equal(_assert_one_round_views_are_chunk_entries(comm_only, V)[0], D)


def test_every_schedule_constructor_normalizes_and_checks_its_edge_sets():
    ring = [(0, 1), (1, 2), (2, 0)]
    sets = (ring, [(0, 1), (1, 2), (2, 0), (0, 2)])
    assert dp.GraphSchedule(3, sets) == dp.GraphSchedule.periodic(3, sets)
    assert dp.GraphSchedule(3, [ring]) == dp.GraphSchedule.static(3, ring)
    # the self-loops require_self_loops asks for are added by the constructor itself
    direct = dp.GraphSchedule(3, (frozenset(ring),))
    assert all((i, i) in direct.edges_at(0) for i in range(3))
    assert np.diag(direct.weights_at(0)).tolist() == [0.5] * 3
    for make in (lambda e: dp.GraphSchedule(3, (frozenset(e),)),
                 lambda e: dp.GraphSchedule.static(3, e),
                 lambda e: dp.GraphSchedule.periodic(3, [ring, e])):
        for bad in ([(0, 5)], [(-1, 0)]):
            with pytest.raises(ScheduleError, match="outside agent range"):
                make(bad)


def test_procedural_schedule_rule():
    # a rule t -> edges over a run of T rounds is the periodic schedule of
    # its T edge sets, with one phase per distinct edge set
    rule = lambda t: [(0, 1), (1, 2), (2, 0)] if t % 2 == 0 else [(0, 2), (2, 1), (1, 0)]
    sched = dp.GraphSchedule.periodic(3, [rule(t) for t in range(6)])
    assert sched.weights_at(0)[1, 0] > 0 and sched.weights_at(0)[1, 2] == 0
    assert sched.weights_at(1)[1, 0] == 0 and sched.weights_at(1)[1, 2] > 0
    assert sched.phase_at(4) is sched.phase_at(2) is sched.phase_at(0)
    g = config_to_dict(dp.RunConfig(game=small_linear_game(3), graph=sched))["graph"]
    assert g["type"] == "periodic" and dp.GraphSchedule.periodic(3, g["edge_sets"]) == sched


def test_schedules_round_trip_through_the_config_file(bench_graph):
    for delays in (dp.DelaySchedule.fixed(3, comm={(3, 1): 2}, feedback={0: 1}),
                   dp.DelaySchedule.uniform(10, seed=5)):
        cfg = dp.RunConfig(game="nash-cournot", graph=bench_graph, delays=delays, horizon=10)
        back = config_from_dict(config_to_dict(cfg))
        assert back.graph == bench_graph and back.delays == delays
