import numpy as np
import pytest

import dpgames as dp
from dpgames.game import ActionDomainError, clip_to_box

from conftest import per_agent_copy, small_linear_game

BENCH_X0 = np.array([-1.0, 2.0, 2.0, 5.0, 1.0])


def finite_difference_own_gradient(game, i, t, x, h=1e-5):
    """Central difference of F_i(x_i, Psi(x_i, x_-i)) in x_i (m = 1)."""
    def f(s):
        xs = x.copy()
        xs[i, 0] = s
        return game.cost_fn(i, t, xs[i], game.aggregate(xs))
    s0 = x[i, 0]
    return (f(s0 + h) - f(s0 - h)) / (2.0 * h)


def test_cost_at_benchmark_init(cournot):
    # x(0) = (-1,2,2,5,1): sum = 9, scaled aggregate 9/5
    assert cournot.cost(0, 0, [-1.0], [9.0 / 5.0]) == pytest.approx(791.0, abs=1e-12)


def test_cost_zero_action_is_free(cournot):
    for t in (0, 3, 50):
        for psi in (-2.0, 0.0, 7.0):
            assert cournot.cost(1, t, [0.0], [psi]) == 0.0


def test_cost_rejects_out_of_box_action(cournot):
    with pytest.raises(ActionDomainError):
        cournot.cost(0, 0, [6.0], [0.0])  # box of agent 0 is [-5, 5]


def test_local_gradient_benchmark_value(cournot):
    g = cournot.local_gradient(0, 0, [-1.0], [9.0 / 5.0])
    assert g == pytest.approx([-792.0], abs=1e-12)


def test_grad_psi_is_identity(cournot):
    for i in range(5):
        assert np.array_equal(cournot.grad_psi(i, np.array([1.7])), np.eye(1))


def test_local_gradient_matches_finite_differences(cournot):
    rng = np.random.default_rng(17)
    lo, hi = cournot.box_lo, cournot.box_hi
    for _ in range(100):
        x = lo + (0.05 + 0.9 * rng.random(lo.shape)) * (hi - lo)
        i = int(rng.integers(5))
        t = int(rng.integers(0, 40))
        analytic = cournot.local_gradient(i, t, x[i], cournot.aggregate(x))[0]
        numeric = finite_difference_own_gradient(cournot, i, t, x)
        assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-6)


def test_linear_game_gradient_matches_finite_differences():
    game = small_linear_game(3)
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = game.box_lo + (0.05 + 0.9 * rng.random(game.box_lo.shape)) * (game.box_hi - game.box_lo)
        i = int(rng.integers(3))
        analytic = game.local_gradient(i, 0, x[i], game.aggregate(x))[0]
        numeric = finite_difference_own_gradient(game, i, 0, x)
        assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-6)


def test_pseudogradient_at_benchmark_init(cournot):
    x = BENCH_X0[:, None]
    g = cournot.pseudogradient(0, x)
    expected = np.array([50.0 * (i + 1) - 850.0 + 9.0 + BENCH_X0[i] for i in range(5)])
    assert np.allclose(g.ravel(), expected, atol=1e-12)
    assert g[0, 0] == pytest.approx(-792.0)


def test_pseudogradient_at_zero_with_frozen_sin(cournot):
    g = cournot.pseudogradient(0, np.zeros((5, 1)))  # sin(0) = 0
    assert np.allclose(g.ravel(), [50.0 * (i + 1) - 850.0 for i in range(5)], atol=1e-12)


def test_pseudogradient_strong_monotonicity(cournot):
    # <grad F(x) - grad F(y), x - y> >= mu ||x - y||^2 with mu = 1
    rng = np.random.default_rng(5)
    lo, hi = cournot.box_lo, cournot.box_hi
    t = 7
    for _ in range(1000):
        x = lo + rng.random(lo.shape) * (hi - lo)
        y = lo + rng.random(lo.shape) * (hi - lo)
        dg = cournot.pseudogradient(t, x) - cournot.pseudogradient(t, y)
        dx = x - y
        inner = float((dg * dx).sum())
        assert inner >= (1.0 - 1e-9) * float((dx * dx).sum())


def test_own_gradient_bounded_by_L(cournot):
    rng = np.random.default_rng(29)
    lo, hi = cournot.box_lo, cournot.box_hi
    worst = 0.0
    for _ in range(2000):
        x = lo + rng.random(lo.shape) * (hi - lo)
        t = int(rng.integers(0, 200))
        agg = cournot.aggregate(x)
        for i in range(5):
            worst = max(worst, abs(cournot.grad_own(i, t, x[i], agg)[0]))
    assert worst <= cournot.L + 1e-9
    # the bound is tight to within the boxes' reach
    assert cournot.L == pytest.approx(825.0)


def test_cost_depends_on_others_only_through_aggregate(cournot):
    # permuting the other agents' actions leaves every cost unchanged
    x = BENCH_X0[:, None].copy()
    perm = x[[0, 3, 1, 4, 2]]
    assert np.array_equal(cournot.aggregate(x), cournot.aggregate(perm))
    agg = cournot.aggregate(x)
    c_before = cournot.cost(0, 4, x[0], agg)
    c_after = cournot.cost(0, 4, x[0], cournot.aggregate(perm))
    assert c_before == c_after


def test_linear_game_constants():
    game = small_linear_game(4)
    assert game.mu == 1.0
    assert game.grad_lipschitz == 5.0
    # L covers the extreme aggregate
    assert game.L >= abs(-35.0 - 20.0)


def test_resolve_game_registry(cournot):
    assert dp.resolve_game("nash-cournot").name == "nash-cournot"
    assert dp.resolve_game(cournot) is cournot
    with pytest.raises(ValueError):
        dp.resolve_game("no-such-game")


# ---------------------------------------------------------------------------
# batched evaluation against the per-agent loop


def per_agent(game, t, x, psi_val):
    """Pseudogradient and costs from one call per agent (the adapter path)."""
    loop = per_agent_copy(game)
    costs = np.array([game.cost(i, t, x[i], psi_val[i]) for i in range(game.num_agents)])
    return loop.pseudogradient(t, x), costs


def random_profile(game, rng):
    """Actions inside the boxes and unrelated per-agent aggregate values."""
    lo, hi = game.box_lo, game.box_hi
    return lo + rng.random(lo.shape) * (hi - lo), rng.normal(0.0, 5.0, lo.shape)


def curved_game(per_agent=False):
    """m = 2 game with a nonlinear aggregate map whose Jacobian is not
    symmetric, so a transposed Jacobian would show. The callables are
    written in broadcasting form, so the same ones serve both paths.
    """
    build = dp.GameSpec.per_agent if per_agent else dp.GameSpec
    V, m = 4, 2
    c = np.array([[-3.0, 1.0], [2.0, -1.0], [0.5, 0.0], [-1.0, 4.0]])
    M = np.array([[1.0, 0.5], [-0.25, 2.0]])

    def psi_fn(i, x):
        return x @ M.T + 0.1 * x * x

    def grad_psi(i, x):
        return M + 0.2 * x[..., None, :] * np.eye(m)

    return build(
        name="curved-2d", num_agents=V, dim=m,
        box_lo=np.full((V, m), -2.0), box_hi=np.full((V, m), 3.0),
        cost_fn=lambda i, t, x, p: np.sum((c[i] + V * p + 0.5 * x) * x, axis=-1),
        grad_own=lambda i, t, x, p: c[i] + V * p + x,
        grad_agg=lambda i, t, x, p: V * x,
        psi_fn=psi_fn, grad_psi=grad_psi)


@pytest.mark.parametrize("t", [0, 1, 7, 40, 123])
def test_batched_cournot_matches_per_agent_loop(cournot, t):
    x, psi_val = random_profile(cournot, np.random.default_rng(t))
    grad, costs = per_agent(cournot, t, x, psi_val)
    np.testing.assert_allclose(cournot.pseudogradient(t, x), grad, rtol=1e-12)
    np.testing.assert_allclose(cournot.costs(t, x, psi_val), costs, rtol=1e-12)


def test_batched_linear_game_matches_per_agent_loop():
    game = small_linear_game(20)
    rng = np.random.default_rng(31)
    for t in (0, 5):
        x, psi_val = random_profile(game, rng)
        grad, costs = per_agent(game, t, x, psi_val)
        # the aggregate adds agents in order, as the loop does, not pairwise
        loop = per_agent_copy(game)
        assert np.array_equal(game.aggregate(x), loop.aggregate(x))
        assert game.aggregate(x)[0] == sum(x[:, 0]) / 20
        np.testing.assert_allclose(game.pseudogradient(t, x), grad, rtol=1e-12)
        np.testing.assert_allclose(game.costs(t, x, psi_val), costs, rtol=1e-12)


def test_per_agent_adapter_matches_batched_form_and_closed_form():
    loop, batched = curved_game(per_agent=True), curved_game()
    rng = np.random.default_rng(8)
    for _ in range(5):
        x, psi_val = random_profile(loop, rng)
        grad, costs = loop.pseudogradient(2, x), loop.costs(2, x, psi_val)
        np.testing.assert_allclose(batched.pseudogradient(2, x), grad, rtol=1e-12)
        np.testing.assert_allclose(batched.costs(2, x, psi_val), costs, rtol=1e-12)
        # grad_own + J^T grad_agg / V at the exact aggregate, one agent at a
        # time through the broadcasting callables both games are built from
        agg = np.mean([loop.psi(i, x[i]) for i in range(4)], axis=0)
        for i in range(4):
            J = batched.grad_psi(i, x[i])
            expected = (batched.grad_own(i, 2, x[i], agg)
                        + J.T @ batched.grad_agg(i, 2, x[i], agg) / 4)
            np.testing.assert_allclose(grad[i], expected, rtol=1e-12)
            assert costs[i] == pytest.approx(loop.cost(i, 2, x[i], psi_val[i]), rel=1e-12)


@pytest.mark.parametrize("bad", [6.0, float("nan")])
def test_costs_reject_an_action_outside_its_box(cournot, bad):
    x = BENCH_X0[:, None].copy()
    x[0, 0] = bad  # box of agent 0 is [-5, 5]
    with pytest.raises(ActionDomainError, match="agent 0"):
        cournot.costs(0, x, np.zeros((5, 1)))
    x[0, 0] = 5.0 + 1e-10  # within the face tolerance
    assert cournot.costs(0, x, np.zeros((5, 1))).shape == (5,)


# ---------------------------------------------------------------------------
# row form: stacked (V, m) blocks with per-row times


def per_row_gradients(game, t, x, psi_val):
    """One ``local_gradient`` call per row, row r belonging to agent r mod V."""
    return np.stack([game.local_gradient(r % game.num_agents, int(t[r]), x[r], psi_val[r])
                     for r in range(len(x))])


def stacked_profiles(game, rng, blocks):
    rows = [random_profile(game, rng) for _ in range(blocks)]
    return np.concatenate([x for x, _ in rows]), np.concatenate([p for _, p in rows])


def test_batched_cournot_gradients_at_mixed_times_equal_the_loop_exactly(cournot):
    rng = np.random.default_rng(41)
    x, psi_val = stacked_profiles(cournot, rng, 3)
    t = rng.integers(0, 500, size=len(x))
    assert np.array_equal(cournot.gradients(t, x, psi_val),
                          per_row_gradients(cournot, t, x, psi_val))
    # and so does the same game built from its callables one row at a time
    assert np.array_equal(per_agent_copy(cournot).gradients(t, x, psi_val),
                          cournot.gradients(t, x, psi_val))
    # a scalar time equals the same time repeated, bit for bit
    assert np.array_equal(cournot.gradients(7, x, psi_val),
                          cournot.gradients(np.full(len(x), 7), x, psi_val))


@pytest.mark.parametrize("game", [small_linear_game(20), curved_game(), curved_game(per_agent=True)],
                         ids=["linear-20", "curved-batched", "curved-per-agent"])
def test_batched_gradients_at_mixed_times_match_the_loop(game):
    rng = np.random.default_rng(43)
    x, psi_val = stacked_profiles(game, rng, 2)
    t = rng.integers(0, 50, size=len(x))
    np.testing.assert_allclose(game.gradients(t, x, psi_val),
                               per_row_gradients(game, t, x, psi_val), rtol=1e-12)


def test_row_form_costs_and_psi_values_match_per_round_calls(cournot):
    rng = np.random.default_rng(47)
    x, psi_val = stacked_profiles(cournot, rng, 4)
    t = np.repeat([3, 0, 11, 250], 5)
    costs, psi = cournot.costs(t, x, psi_val), cournot.psi_values(x)
    for k, s in enumerate((3, 0, 11, 250)):
        rows = slice(5 * k, 5 * k + 5)
        assert np.array_equal(costs[rows], cournot.costs(s, x[rows], psi_val[rows]))
        assert np.array_equal(psi[rows], cournot.psi_values(x[rows]))


def test_row_form_box_error_names_round_and_agent(cournot):
    x = np.tile(BENCH_X0[:, None], (3, 1))
    x[5 + 3, 0] = 13.0  # block 1, agent 3: box [3, 12]
    with pytest.raises(ActionDomainError, match="agent 3 at round 21"):
        cournot.costs(np.repeat([20, 21, 22], 5), x, np.zeros_like(x))


def test_box_clip_keeps_np_clip_bits_at_signed_zeros_on_a_face():
    # faces at +0.0 and -0.0 from both sides, met by +-0.0, NaN and +-inf;
    # with array bounds np.clip is minimum(maximum(x, lo), hi) bit for bit,
    # and the engine's projection and the oracle both clip through it
    lo = np.array([[0.0], [-0.0], [-1.0], [-1.0], [0.0], [-0.0]])
    hi = np.array([[1.0], [1.0], [0.0], [-0.0], [0.0], [-0.0]])
    for value in (-0.0, 0.0, np.nan, np.inf, -np.inf, 0.5, -0.5):
        x = np.full((6, 1), value)
        expected = np.clip(x, lo, hi).tobytes()
        assert clip_to_box(x, lo, hi).tobytes() == expected
        assert dp.project(x, 1.0, lo, hi).tobytes() == np.clip(-1.0 * x, lo, hi).tobytes()
