import dataclasses
import itertools
import re

import numpy as np
import pytest

import dpgames as dp
from dpgames import metrics
from dpgames.metrics import OracleError

from conftest import ring_graph, small_linear_game

CORNER = np.array([5.0, 10.0, 8.0, 12.0, 6.0])


def best_response_fixed_point(game, t, tol=1e-12, iters=10000):
    """Independent oracle: iterate exact per-agent best responses.

    For the shipped quadratic-in-own-action games the best response is the
    clamp of -(the private linear term plus the others' actions) / 2, solved
    in closed form; the private term is the local gradient at zero.
    """
    V = game.num_agents
    x = ((game.box_lo + game.box_hi) / 2.0).copy()
    for _ in range(iters):
        x_old = x.copy()
        for i in range(V):
            others = sum(game.psi(j, x[j]) for j in range(V) if j != i)
            # own cost = (k + others + x_i) x_i with k the private linear term
            k = game.local_gradient(i, t, np.zeros(1), np.zeros(1))[0] + others[0]
            x[i] = np.clip(-k / 2.0, game.box_lo[i], game.box_hi[i])
        if np.abs(x - x_old).max() < tol:
            return x
    raise RuntimeError("best-response iteration did not settle")


def test_oracle_finds_benchmark_corner(cournot):
    sol = dp.ne_oracle(cournot, 0, tol=1e-10)
    assert np.allclose(sol.x_star.ravel(), CORNER, atol=1e-8)
    assert sol.residual <= 1e-10
    br = best_response_fixed_point(cournot, 0)
    assert np.allclose(sol.x_star, br, atol=1e-8)


def test_oracle_kkt_conditions(cournot):
    sol = dp.ne_oracle(cournot, 0, tol=1e-10)
    assert dp.kkt_max_violation(cournot, 0, sol.x_star) <= 1e-8
    # at the all-upper corner every gradient component is negative
    g = cournot.pseudogradient(0, sol.x_star)
    assert (g < 0).all()


def constant_gradient_game(g):
    """Four agents whose pseudogradient is the constant g; boxes [0, 1]
    except agent 3's, which is the single point 2.
    """
    return dp.GameSpec.per_agent(
        name="constant-gradient", num_agents=4, dim=1,
        box_lo=np.array([[0.0], [0.0], [0.0], [2.0]]),
        box_hi=np.array([[1.0], [1.0], [1.0], [2.0]]),
        cost_fn=lambda i, t, x, p: g[i] * x[0],
        gradient_fn=lambda i, t, x, p: np.array([g[i]]), psi_fn=lambda i, x: x)


def test_kkt_violation_hand_values():
    # agents at the lower face, the upper face, inside, and in a degenerate box
    x = np.array([[0.0], [1.0], [0.5], [2.0]])
    # a descent direction out of each face, and a nonzero interior gradient
    assert dp.kkt_max_violation(constant_gradient_game([-3.0, 2.0, -1.5, 10.0]), 0, x) == 3.0
    assert dp.kkt_max_violation(constant_gradient_game([-1.0, 2.5, -1.5, 10.0]), 0, x) == 2.5
    # faces pushed outward are satisfied; only the interior gradient counts
    assert dp.kkt_max_violation(constant_gradient_game([3.0, -2.0, -0.5, 10.0]), 0, x) == 0.5
    # the degenerate box is skipped whatever its gradient
    assert dp.kkt_max_violation(constant_gradient_game([3.0, -2.0, 0.0, -10.0]), 0, x) == 0.0
    # within face_tol of a face counts as on it
    near = x + np.array([[1e-10], [-1e-10], [0.0], [0.0]])
    assert dp.kkt_max_violation(constant_gradient_game([3.0, -2.0, 0.0, 10.0]), 0, near) == 0.0


def test_oracle_agrees_from_random_starts(cournot):
    rng = np.random.default_rng(14)
    tol = 1e-10
    base = dp.ne_oracle(cournot, 9, tol=tol)
    for _ in range(10):
        x0 = cournot.box_lo + rng.random((5, 1)) * (cournot.box_hi - cournot.box_lo)
        sol = dp.ne_oracle(cournot, 9, tol=tol, x0=x0)
        assert np.linalg.norm(sol.x_star - base.x_star) <= 10 * tol


def test_oracle_matches_closed_form_on_unconstrained_toy():
    c = np.array([-6.0, 2.0, 10.0])
    game = dp.linear_demand_game(c, [-1e6] * 3, [1e6] * 3)
    sol = dp.ne_oracle(game, 0, tol=1e-12)
    # (I + 11^T) x = -c solved directly
    x_direct = np.linalg.solve(np.eye(3) + np.ones((3, 3)), -c)
    assert np.allclose(sol.x_star.ravel(), x_direct, atol=1e-10)


def test_oracle_recovers_the_closed_form_under_an_understated_lipschitz_constant():
    # L_F = 0.2 against a true 4 makes the first step 20 times too long; the
    # adaptive step shrinks to the local curvature and still converges
    game = dp.linear_demand_game([-6.0, 2.0, 10.0], [-1e6] * 3, [1e6] * 3)
    sol = dp.ne_oracle(dataclasses.replace(game, grad_lipschitz=0.2), 0, tol=1e-12)
    assert np.allclose(sol.x_star.ravel(), [7.5, -0.5, -8.5], rtol=0, atol=1e-12)


def test_a_closed_safeguard_leaves_the_plain_forward_backward_iteration(monkeypatch):
    # with D = 0 the safeguard turns every extrapolation away, and each step
    # is x <- T(x) = clip(x - alpha F(x)), alpha = mu / L_F^2
    game = dp.linear_demand_game([-6.0, 2.0, 10.0], [-1e6] * 3, [1e6] * 3)
    tol, alpha = 1e-10, game.mu / game.grad_lipschitz ** 2
    x = (game.box_lo + game.box_hi) / 2.0
    for k in range(1, 10000):
        x_fb = np.clip(x - alpha * game.pseudogradient(0, x), game.box_lo, game.box_hi)
        d = (x - x_fb).ravel()
        if np.sqrt(np.dot(d, d)) <= tol:
            break
        x = x_fb
    monkeypatch.setattr(metrics, "SAFEGUARD_D", 0.0)
    sol = dp.ne_oracle(game, 0, tol=tol)
    assert sol.iterations == k > 100
    assert sol.x_star.tobytes() == x_fb.tobytes()


def flipping_gradient_game():
    """Three agents in boxes [-10, 10] whose pseudogradient is the constant
    c on odd-numbered calls and -c on even-numbered ones.
    """
    c = np.array([[4.0], [-1.0], [2.5]])
    signs = itertools.cycle([1.0, -1.0])
    return dataclasses.replace(small_linear_game(3, box=10.0), name="flipping-gradient",
                               gradient_fn=lambda i, t, x, p: next(signs) * c[i])


def test_oracle_detects_non_contraction():
    # the stall guard: no profile is a fixed point of two successive calls,
    # and every residual inside the box is ||c|| / 16 (alpha = 1 / 16), so
    # no method that keeps its iterates inside makes the residual fall
    with pytest.raises(OracleError, match="no contraction after"):
        dp.ne_oracle(flipping_gradient_game(), 0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_oracle_rejects_bad_tolerance(tol, cournot):
    with pytest.raises(ValueError, match="finite and positive"):
        dp.ne_oracle(cournot, 0, tol=tol)


def test_oracle_stops_at_a_non_finite_residual(cournot):
    with pytest.raises(OracleError, match="non-finite residual at round 0, iteration 1"):
        dp.ne_oracle(cournot, 0, x0=np.full((5, 1), np.nan))
    # a gradient that is NaN at round 4 only
    game = dataclasses.replace(cournot, gradient_fn=lambda i, t, x, p: np.where(
        (np.asarray(t) == 4)[..., None], np.nan, cournot.gradient_fn(i, t, x, p)))
    assert dp.ne_oracle(game, 3).iterations == 2
    with pytest.raises(OracleError, match="non-finite residual at round 4, iteration 1"):
        dp.ne_oracle(game, 4)
    with pytest.raises(OracleError, match="at round 4,"):
        dp.solve_equilibria(game, range(8))


@pytest.mark.parametrize("bound, iterations", [(np.inf, 1), (-np.inf, 2)])
def test_oracle_clips_an_infinite_start_into_the_box(bound, iterations, cournot):
    # +inf clips to the upper corner, which is the equilibrium
    sol = dp.ne_oracle(cournot, 0, x0=np.full((5, 1), bound))
    assert sol.iterations == iterations and np.array_equal(sol.x_star.ravel(), CORNER)


def nonsymmetric_game(box):
    """Per-agent game with F_i(x) = a_i x_i + b_i sum_j x_j + c_i, so the
    Jacobian diag(a) + b 1^T is not symmetric; it declares ||M||_2 as its
    Lipschitz constant. Returns the game and (M, c).
    """
    rng = np.random.default_rng(31)
    V = 6
    a = rng.uniform(3.0, 6.0, V)
    b = np.array([0.05, 0.3, 0.1, 0.25, 0.15, 0.2])
    c = rng.uniform(-20.0, 20.0, V)
    M = np.diag(a) + np.outer(b, np.ones(V))
    mu = float(np.linalg.eigvalsh((M + M.T) / 2).min())
    # cost ((a_i - b_i)/2) x_i^2 + b_i V psi x_i + c_i x_i with psi the mean
    # action; the own partial holds psi fixed, so F_i adds b_i x_i back
    game = dp.GameSpec.per_agent(
        name="nonsymmetric", num_agents=V, dim=1,
        box_lo=np.full((V, 1), -box), box_hi=np.full((V, 1), box),
        cost_fn=lambda i, t, x, p: (a[i] - b[i]) / 2 * x[0] ** 2 + (b[i] * V * p[0] + c[i]) * x[0],
        grad_own=lambda i, t, x, p: np.array([(a[i] - b[i]) * x[0] + b[i] * V * p[0] + c[i]]),
        grad_agg=lambda i, t, x, p: np.array([b[i] * V * x[0]]),
        psi_fn=lambda i, x: x, grad_psi=lambda i, x: np.eye(1),
        mu=mu, grad_lipschitz=float(np.linalg.norm(M, 2)))
    return game, M, c


def test_oracle_on_nonsymmetric_per_agent_game():
    game, M, c = nonsymmetric_game(1e6)
    assert game.mu > 0
    x = np.linspace(-1.0, 1.0, 6).reshape(6, 1)
    assert np.allclose(game.pseudogradient(0, x).ravel(), M @ x.ravel() + c, atol=1e-12)
    sol = dp.ne_oracle(game, 0, tol=1e-12)
    assert np.allclose(sol.x_star.ravel(), np.linalg.solve(M, -c), atol=1e-9)

    boxed, _, _ = nonsymmetric_game(1.0)
    tol = 1e-10
    sol = dp.ne_oracle(boxed, 0, tol=tol)
    x_star = sol.x_star.ravel()
    assert np.any(np.abs(x_star) == 1.0) and np.any(np.abs(x_star) < 1.0)
    assert dp.kkt_max_violation(boxed, 0, sol.x_star) <= tol * boxed.grad_lipschitz ** 2 / boxed.mu


def cubic_game(box=2.0):
    """Per-agent game with F_i(x) = a_i x_i + x_i^3 + b sum_j x_j + c_i on
    boxes [-box, box]: not affine, strongly monotone with mu = min a_i, and
    its Jacobian diag(a + 3 x^2) + b 11^T has norm at most
    max a_i + 3 box^2 + b V, the declared L_F.
    """
    V, b = 6, 0.3
    a = np.array([1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    c = np.array([-30.0, -6.0, 1.0, 4.0, 12.0, 40.0])
    return dp.GameSpec.per_agent(
        name="cubic", num_agents=V, dim=1,
        box_lo=np.full((V, 1), -box), box_hi=np.full((V, 1), box),
        cost_fn=lambda i, t, x, p: (a[i] - b) / 2 * x[0] ** 2 + x[0] ** 4 / 4 + (b * V * p[0] + c[i]) * x[0],
        grad_own=lambda i, t, x, p: np.array([(a[i] - b) * x[0] + x[0] ** 3 + b * V * p[0] + c[i]]),
        grad_agg=lambda i, t, x, p: np.array([b * V * x[0]]),
        psi_fn=lambda i, x: x, grad_psi=lambda i, x: np.eye(1),
        mu=float(a.min()), grad_lipschitz=float(a.max() + 3 * box ** 2 + b * V))


def test_oracle_on_a_non_affine_game_matches_a_projection_loop():
    game, tol = cubic_game(), 1e-10
    sol = dp.ne_oracle(game, 0, tol=tol)
    x_star = sol.x_star.ravel()
    assert np.any(np.abs(x_star) == 2.0) and np.any(np.abs(x_star) < 2.0)
    assert dp.kkt_max_violation(game, 0, sol.x_star) <= tol * game.grad_lipschitz ** 2 / game.mu
    # slow reference: projected gradient steps of 1 / L_F (F is the gradient
    # of a strongly convex potential) until a step changes nothing
    x = (game.box_lo + game.box_hi) / 2.0
    for _ in range(10000):
        x_next = np.clip(x - game.pseudogradient(0, x) / game.grad_lipschitz, game.box_lo, game.box_hi)
        if np.array_equal(x_next, x):
            break
        x = x_next
    else:
        raise AssertionError("reference projection loop did not settle")
    assert np.abs(sol.x_star - x).max() <= 1e-9


@pytest.mark.parametrize("game, iterations", [
    (small_linear_game(20), 14),  # perfbench's scaling game
    (small_linear_game(50), 15),
    (nonsymmetric_game(1e6)[0], 11),
    (nonsymmetric_game(1.0)[0], 5),
    (dp.linear_demand_game([-6.0, 2.0, 10.0], [-1e6] * 3, [1e6] * 3), 4),  # the unconstrained toy
    (dp.linear_demand_game([-20.0, -25.0, -30.0], [-5.0] * 3, [5.0] * 3), 5),  # README's game
    (dp.nash_cournot(), 2),
    (cubic_game(), 16),
], ids=["scale", "linear-50", "nonsymmetric-box-1e6", "nonsymmetric-box-1", "toy", "readme",
        "cournot", "cubic"])
def test_oracle_iteration_counts_are_pinned(game, iterations):
    # cold solves from the box midpoint at the default tolerance; a change to
    # the extrapolation, its memory or its safeguard moves these counts
    assert dp.ne_oracle(game, 0).iterations == iterations


def _sampled_lipschitz_ratios(game, t, samples=64, seed=0):
    """||F_t(u) - F_t(w)|| / ||u - w|| over random pairs of profiles in the box."""
    rng = np.random.default_rng(seed)
    shape = (game.num_agents, game.dim)
    ratios = []
    for _ in range(samples):
        u = game.box_lo + rng.random(shape) * (game.box_hi - game.box_lo)
        w = game.box_lo + rng.random(shape) * (game.box_hi - game.box_lo)
        du = np.linalg.norm(u - w)
        if du >= 1e-12:
            ratios.append(np.linalg.norm(game.pseudogradient(t, u) - game.pseudogradient(t, w)) / du)
    return np.array(ratios)


@pytest.mark.parametrize("game, t", [
    (dp.nash_cournot(), 0), (dp.nash_cournot(), 7), (dp.nash_cournot(), 4999),
    (small_linear_game(20), 0),  # perfbench's scaling game
    (dp.linear_demand_game([-20.0, -25.0, -30.0], [-5.0] * 3, [5.0] * 3), 0),  # README's game
    (nonsymmetric_game(1.0)[0], 3),
    (cubic_game(), 0),
], ids=["cournot-0", "cournot-7", "cournot-4999", "scale", "readme", "nonsymmetric", "cubic"])
def test_declared_lipschitz_constant_bounds_every_sampled_ratio(game, t):
    # the oracle's step and its KKT bound rest on grad_lipschitz being a true bound
    ratios = _sampled_lipschitz_ratios(game, t)
    assert ratios.size > 0 and ratios.max() <= game.grad_lipschitz * (1 + 1e-12)


@pytest.mark.parametrize("L_F", [None, 0.0, -1.0, float("nan"), float("inf")])
def test_oracle_requires_a_declared_finite_positive_lipschitz_constant(L_F, cournot, monkeypatch):
    game = dataclasses.replace(cournot, grad_lipschitz=L_F)
    calls = []
    monkeypatch.setattr(dp.GameSpec, "gradients", lambda *a: calls.append(a))
    with pytest.raises(OracleError, match="grad_lipschitz"):
        dp.ne_oracle(game, 0)
    with pytest.raises(OracleError, match="grad_lipschitz"):
        dp.solve_equilibria(game, range(3))
    assert calls == []  # raised before any gradient call


@pytest.mark.parametrize("mu", [0.0, -1.0, float("nan")])
def test_oracle_requires_a_positive_monotonicity_modulus(mu, cournot):
    game = dataclasses.replace(cournot, mu=mu)
    with pytest.raises(OracleError, match="strongly monotone"):
        dp.ne_oracle(game, 0)
    with pytest.raises(OracleError, match="strongly monotone"):
        dp.solve_equilibria(game, range(3))


def test_scaling_game_equilibria_meet_the_kkt_gate():
    # perfbench's scaling game: 5 agents on the lower face, 14 on the upper
    # and one inside; the gate is the oracle's bound tol L_F^2 / mu
    game, tol = small_linear_game(20), 1e-10
    sols = dp.solve_equilibria(game, range(21), tol=tol)
    assert np.abs(sols[0].x_star - best_response_fixed_point(game, 0)).max() <= 1e-7
    bound = tol * game.grad_lipschitz ** 2 / game.mu
    assert max(dp.kkt_max_violation(game, s.t, s.x_star) for s in sols) <= bound


def test_cournot_equilibria_take_two_then_one_iteration(cournot):
    # fig7 and fig5 solve these rounds warm-started; each later round's
    # equilibrium is the box corner the previous round ended on
    sols = dp.solve_equilibria(cournot, range(201))
    assert [s.iterations for s in sols] == [2] + [1] * 200


def test_solve_equilibria_warm_starts(cournot):
    sols = dp.solve_equilibria(cournot, range(30))
    assert [s.t for s in sols] == list(range(30))
    assert all(s.residual <= 1e-10 for s in sols)
    assert max(s.iterations for s in sols[1:]) <= 10


def _warm_started_loop(game, times, tol=1e-10):
    """Reference: one ne_oracle call per round, each started from the last."""
    out, x = [], None
    for t in times:
        sol = metrics.ne_oracle(game, t, tol=tol, x0=x)
        out.append(sol)
        x = sol.x_star
    return out


def switching_corner_game():
    """Four agents whose equilibrium is the upper box corner before t = 37
    and the lower one from t = 37 on: a step in the private linear term.
    """
    V = 4

    def c(i, t):  # rows, or one agent, as in linear_demand_game
        return np.where(np.asarray(t) < 37, -100.0, 100.0) + i

    return dataclasses.replace(
        small_linear_game(V), name="switching-corner",
        cost_fn=lambda i, t, x, p: (c(i, t) + V * p.T[0]) * x.T[0],
        gradient_fn=lambda i, t, x, p: (c(i, t) + V * p.T[0])[..., None] + V * x / V)


@pytest.mark.parametrize("game, times", [
    (dp.nash_cournot(), range(401)),
    (small_linear_game(20), range(21)),  # perfbench's scaling game: every warm round moves
    (nonsymmetric_game(1.0)[0], range(10)),  # a GameSpec.per_agent game
    (dp.nash_cournot(), [0, 5, 7, 100, 3, 3, 3]),
    (switching_corner_game(), range(80)),  # a doubled chunk breaks at t = 37
], ids=["cournot-401", "scale-21", "nonsymmetric-10", "out-of-order", "corner-switch"])
def test_solve_equilibria_is_bit_identical_to_the_warm_started_loop(game, times):
    sols = dp.solve_equilibria(game, times)
    ref = _warm_started_loop(game, times)
    assert len(sols) == len(ref)
    assert len({id(s.x_star) for s in sols}) == len(sols)  # each round owns its profile
    # not two views of one row either: a settled chunk shares one block, a row per round
    assert not any(np.shares_memory(a.x_star, b.x_star) for a, b in zip(sols, sols[1:]))
    for s, r in zip(sols, ref):
        assert (s.t, type(s.t), s.residual, s.iterations) == (r.t, type(r.t), r.residual, r.iterations)
        assert s.x_star.tobytes() == r.x_star.tobytes()


def _oracle_rounds(monkeypatch):
    """The rounds ``solve_equilibria`` hands to the module-global oracle."""
    rounds = []
    oracle = metrics.ne_oracle
    monkeypatch.setattr(metrics, "ne_oracle", lambda game, t, **kw: rounds.append(t) or oracle(game, t, **kw))
    return rounds


def test_corner_switch_goes_back_to_the_oracle(monkeypatch):
    rounds = _oracle_rounds(monkeypatch)
    sols = dp.solve_equilibria(switching_corner_game(), range(80))
    assert rounds == [0, 1, 37, 38]
    assert np.all(sols[36].x_star == 5.0) and np.all(sols[37].x_star == -5.0)


def test_cournot_horizon_calls_the_oracle_twice(cournot, monkeypatch):
    rounds = _oracle_rounds(monkeypatch)
    dp.solve_equilibria(cournot, range(401))
    assert rounds == [0, 1]


def _cournot_records():
    cournot = dp.nash_cournot()
    sols = dp.solve_equilibria(cournot, range(3))
    return sols[0], dp.dynamic_regret(cournot, np.stack([s.x_star for s in sols]), sols)


_RECORDS = {
    "EquilibriumSolution": lambda: _cournot_records()[0],
    "RegretReport": lambda: _cournot_records()[1],
    "StabilizationStat": lambda: dp.stabilization_stat(np.arange(100.0)),
    "ConnectivityReport": lambda: dp.validate_b_connectivity(ring_graph(3), 1, 5),
    "MixingDiagnostics": lambda: dp.mixing_diagnostics(ring_graph(3), dp.DelaySchedule.none(), 10),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_result_records_reject_attribute_assignment(name):
    record = _RECORDS[name]()
    assert type(record) is getattr(dp, name)
    first = next(iter(type(record).__annotations__))
    before = getattr(record, first)
    for attr in (first, "extra"):  # a field, and a name that is none
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    assert getattr(record, first) is before and not hasattr(record, "extra")


def test_a_solution_is_replaced_as_a_dataclass_or_a_named_tuple():
    # perfbench's self-test corrupts a solution with dataclasses.replace
    sol = dp.ne_oracle(dp.nash_cournot(), 0)
    x = sol.x_star + 1.0
    for moved in (dataclasses.replace(sol, x_star=x), sol._replace(x_star=x)):
        assert type(moved) is dp.EquilibriumSolution and moved == (sol.t, x, sol.residual, sol.iterations)
    assert [f.name for f in dataclasses.fields(sol)] == list(sol._fields)


# ---------------------------------------------------------------------------
# regret


def test_regret_of_oracle_trajectory_is_negligible(cournot):
    tol = 1e-10
    sols = dp.solve_equilibria(cournot, range(40), tol=tol)
    traj = np.stack([s.x_star for s in sols])
    rep = dp.dynamic_regret(cournot, traj, sols)
    bound = cournot.num_agents * tol * cournot.L * 40
    assert abs(rep.total()) <= max(bound, 1e-6)
    assert np.allclose(rep.cumulative_mean, rep.cumulative / 5)


def test_regret_single_agent_hand_value():
    # one agent, cost (x - 4) x: optimum x* = 2, playing 3 costs one unit more
    game = dp.linear_demand_game([-4.0], [-100.0], [100.0])
    sol = dp.ne_oracle(game, 0, tol=1e-12)
    assert sol.x_star.ravel() == pytest.approx([2.0], abs=1e-10)
    traj = np.array([[[3.0]], [[3.0]]])
    rep = dp.dynamic_regret(game, traj, dp.solve_equilibria(game, [0, 1], tol=1e-12))
    # F(3) - F(2) = (-1)(3) - (-2)(2) = 1 per round
    assert rep.increments == pytest.approx(np.ones((2, 1)), abs=1e-9)
    assert rep.total() == pytest.approx(2.0, abs=1e-8)


def test_regret_counterfactual_mixes_profiles(cournot):
    # the first term must evaluate the played action inside the others'
    # equilibrium profile, not the played profile
    sols = dp.solve_equilibria(cournot, [0])
    x = sols[0].x_star.copy()
    x[0, 0] = 0.0  # agent 0 deviates to 0, the rest sit at the equilibrium
    rep = dp.dynamic_regret(cournot, x[None], sols)
    agg_mixed = (CORNER.sum() - 5.0 + 0.0) / 5.0
    expected = (cournot.cost(0, 0, [0.0], [agg_mixed])
                - cournot.cost(0, 0, [5.0], [CORNER.sum() / 5.0]))
    assert rep.increments[0, 0] == pytest.approx(expected, abs=1e-9)
    assert np.allclose(rep.increments[0, 1:], 0.0, atol=1e-9)


def test_regret_horizon_mismatch():
    game = small_linear_game(2)
    sols = dp.solve_equilibria(game, [0, 1, 2])
    with pytest.raises(ValueError):
        dp.dynamic_regret(game, np.zeros((2, 2, 1)), sols)


# ---------------------------------------------------------------------------
# loss series and stabilization


@pytest.mark.parametrize("A", [[[0.0, 0.0]], [[np.nan, 1.0]], [[1.0, 0.0], [0.0, 0.0]]],
                         ids=["zero-row", "nan-row", "zero-second-row"])
def test_anderson_weights_give_up_on_a_zero_or_nan_row(A):
    assert metrics._anderson_weights(np.array(A), np.array([1.0, 2.0])) is None


@pytest.mark.parametrize("call, message", [
    (lambda: dp.average_loss([]), "empty loss series"),
    (lambda: dp.stabilization_stat(np.ones(200), tail_fraction=0), "tail fraction must be in (0, 1], got 0"),
    (lambda: dp.stabilization_stat(np.ones((200, 2))), "stabilization_stat expects a 1-d series"),
])
def test_series_that_cannot_be_summarized_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_average_loss_trivial_series():
    assert dp.average_loss(np.array([7.0, 7.0, 7.0])).tolist() == [7.0, 7.0, 7.0]
    assert dp.average_loss(np.array([1.0, 2.0, 3.0])).tolist() == [1.0, 1.5, 2.0]


def test_average_loss_per_agent_columns():
    out = dp.average_loss(np.array([[1.0, 10.0], [3.0, 30.0]]))
    assert out.tolist() == [[1.0, 10.0], [2.0, 20.0]]


def test_average_of_nonincreasing_series_is_nonincreasing():
    rng = np.random.default_rng(3)
    losses = np.sort(rng.normal(0, 5, 200))[::-1]
    avg = dp.average_loss(losses)
    assert (np.diff(avg) <= 1e-12).all()


def test_stabilization_constant_series():
    st = dp.stabilization_stat(np.full(200, 3.5))
    assert st.rel_std == 0.0 and st.slope == pytest.approx(0.0, abs=1e-12)


def test_stabilization_linear_series_recovers_slope():
    a = 0.37
    st = dp.stabilization_stat(a * np.arange(500.0))
    assert st.slope == pytest.approx(a, abs=1e-9)


def test_stabilization_decaying_series_slope():
    t = np.arange(1, 10001, dtype=float)
    st = dp.stabilization_stat(1.0 / np.sqrt(t), tail_fraction=0.1)
    assert abs(st.slope) < 1e-5


def test_stabilization_degenerate_tail_flagged():
    series = np.concatenate([np.ones(180), np.zeros(40)])
    st = dp.stabilization_stat(series, tail_fraction=0.1)
    assert st.degenerate and st.rel_std == 0.0


def test_stabilization_requires_enough_points():
    with pytest.raises(ValueError):
        dp.stabilization_stat(np.ones(50), tail_fraction=0.1)


def test_stabilization_time_scan():
    # settles once the 1/sqrt(t) transient has passed
    t = np.arange(1, 2001, dtype=float)
    series = 5.0 + 30.0 / np.sqrt(t)
    t_star = dp.stabilization_time(series, rel_std_max=0.01, slope_max=1e-3)
    assert t_star is not None
    assert dp.stabilization_time(np.sin(t), rel_std_max=0.01, slope_max=1e-3) is None
