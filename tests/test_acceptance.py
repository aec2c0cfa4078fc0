"""End-to-end acceptance battery, checks A1-A11.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Two checks fail by design of the benchmark constants rather than by a code
defect, and are left red instead of being loosened; README's "Known red
checks" section carries the analysis:

* A3's absolute tail-slope threshold: with a constant per-step Laplace scale
  the aggregate-estimate consensus accumulates noise as a random walk, so the
  agent-side average-loss series drifts orders of magnitude faster than the
  1e-2-per-step bound (its relative tail dispersion still passes).
* A4's learning-rate ordering: the dual variables reach magnitudes where the
  box clamp erases the step size entirely, so the gamma=1 and gamma=10 runs
  are bit-identical and no strict ordering exists.
"""

import copy
import math
import time

import numpy as np

import dpgames as dp
from dpgames.cli import benchmark_graph, preset
from dpgames.engine import World

from conftest import (avg_series, bench_init, complete_graph, cournot_partials, density_ratio_check,
                      per_agent_copy, small_linear_game)


def report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


# ---------------------------------------------------------------------------


def test_a1_augmented_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(20):
        V = 5 if k % 2 else 3
        tau = (1, 2, 3)[k % 3]
        noise = (dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0) if k % 4 < 2
                 else dp.NoiseConfig.off())
        edge_sets = []
        for _ in range(2):
            edges = [(i, (i + 1) % V) for i in range(V)]
            edges += [(i, j) for i in range(V) for j in range(V)
                      if i != j and rng.random() < 0.3]
            edge_sets.append(edges)
        graph = dp.GraphSchedule.periodic(V, edge_sets)
        game = dp.nash_cournot() if V == 5 else small_linear_game(3)
        x0 = game.box_lo + rng.random((V, 1)) * (game.box_hi - game.box_lo)
        cfg = dp.RunConfig(game=game, graph=graph, delays=dp.DelaySchedule.uniform(tau),
                           noise=noise, horizon=100, x0=x0, seed=1000 + k)
        a, b = dp.run(cfg), dp.run_augmented_reference(cfg)
        for f in ("b", "x", "v"):
            worst = max(worst, float(np.abs(getattr(a, f) - getattr(b, f)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    assert report("A1 augmented-oracle equivalence",
                  ok, f"20 configs, max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_a2_regret_sublinearity(cournot):
    t0 = time.perf_counter()
    cfg = dp.RunConfig(game="nash-cournot", graph=benchmark_graph(), horizon=4000,
                       x0=bench_init(), seed=7)
    res = dp.run(cfg)
    sols = dp.solve_equilibria(cournot, range(4001))
    rep = dp.dynamic_regret(cournot, res.x, sols)
    r = {T: float(rep.cumulative[T]) for T in (250, 1000, 4000)}
    rates = [r[250] / 250, r[1000] / 1000, r[4000] / 4000]
    elapsed = time.perf_counter() - t0
    ok = (rates[0] > rates[1] > rates[2]
          and r[4000] / r[1000] < 4000 / 1000
          and elapsed < 10.0)
    assert report("A2 regret sublinearity", ok,
                  f"R/T = {rates[0]:.3g}, {rates[1]:.3g}, {rates[2]:.3g}; "
                  f"R(4000)/R(1000) = {r[4000] / r[1000]:.3g}; {elapsed:.1f}s")


def test_a3_baseline_stabilization():
    t0 = time.perf_counter()
    res = dp.run(preset("fig2-baseline"))
    elapsed = time.perf_counter() - t0
    series = avg_series(res)
    stats = [dp.stabilization_stat(series[:, i]) for i in range(5)]
    rel_ok = all(s.rel_std < 0.05 for s in stats)
    slope_ok = all(abs(s.slope) < 1e-2 for s in stats)
    game = res.config.resolved_game()
    boxes_ok = bool(np.all(res.x >= game.box_lo[None]) and np.all(res.x <= game.box_hi[None]))
    ok = rel_ok and slope_ok and boxes_ok and elapsed < 5.0
    report("A3 baseline stabilization", ok,
           f"max rel std {max(s.rel_std for s in stats):.3g} (<0.05: {rel_ok}), "
           f"max |slope| {max(abs(s.slope) for s in stats):.3g} (<1e-2: {slope_ok}), "
           f"boxes: {boxes_ok}, {elapsed:.1f}s")
    assert rel_ok and boxes_ok and elapsed < 5.0
    assert slope_ok, (
        "absolute tail slope exceeds 1e-2: constant-scale exchange noise random-walks "
        "the aggregate estimates, and the cost is linear in them (see README)")


def test_a4_learning_rate_reaches_stabilization_earlier(fig2_result):
    hi = dp.run(preset("fig3-high-lr"))
    base_series, hi_series = avg_series(fig2_result), avg_series(hi)

    def earliest(series):
        times = [dp.stabilization_time(series[:, i]) for i in range(5)]
        return None if any(t is None for t in times) else max(times)

    t_base, t_hi = earliest(base_series), earliest(hi_series)
    identical = bool(np.array_equal(base_series, hi_series))
    ok = t_hi is not None and t_base is not None and t_hi < t_base
    report("A4 learning-rate ordering", ok,
           f"stabilization t: gamma*10 {t_hi} vs baseline {t_base}; "
           f"series bit-identical: {identical}")
    assert ok, ("gamma=10 must stabilize strictly earlier than gamma=1, but the box "
                "clamp erases the step size and both runs coincide (see README)")


def test_a4_privacy_dispersion_ordering(fig2_result):
    tight = dp.run(preset("fig4-tight-privacy"))
    disp = lambda r: max(dp.stabilization_stat(avg_series(r)[:, i]).rel_std
                         for i in range(5))
    d_base, d_tight = disp(fig2_result), disp(tight)
    ok = d_tight > d_base
    assert report("A4 privacy dispersion ordering", ok,
                  f"tail rel std: eps=0.1 {d_tight:.3g} > eps=0.2 {d_base:.3g}")


def test_a5_delay_robustness():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("fig6-random-delays", "fig7-random-delays-private"):
        res = dp.run(preset(name))
        series = avg_series(res)
        worst = max(worst, max(dp.stabilization_stat(series[:, i]).rel_std
                               for i in range(5)))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.10 and elapsed < 10.0
    assert report("A5 delay robustness", ok,
                  f"max tail rel std {worst:.3g} (<0.10), {elapsed:.1f}s")


def test_a6_privacy_ledger_and_density_ratio():
    res = dp.run(dp.RunConfig(game="nash-cournot", graph=benchmark_graph(),
                              horizon=100, x0=bench_init(), seed=42,
                              noise=dp.NoiseConfig.fixed_epsilon(0.2, delta=1.0)))
    exact = res.ledger.epsilon_hat == 20.0
    rng = np.random.default_rng(60)
    worst_margin = -np.inf
    ratio_ok = True
    for _, delta, sigma, eps_t in res.ledger.records[::20]:  # sampled steps
        # adjacent released duals: l1 distance at most delta
        b = rng.normal(0, 100, 1)
        b_prime = b + rng.uniform(-delta, delta, 1)
        probes = b + rng.normal(0, 5 * sigma, size=(10 ** 4, 1))
        ratio = density_ratio_check(b, b_prime, sigma, probes)
        ratio_ok &= ratio <= eps_t * (1 + 1e-12)
        worst_margin = max(worst_margin, ratio - eps_t)
    ok = exact and ratio_ok
    assert report("A6 privacy ledger exactness", ok,
                  f"eps_hat == 20.0 exactly: {exact}; max ratio-eps margin "
                  f"{worst_margin:.2e} (<= 0)")


def test_a7_sensitivity_bound(cournot):
    cfg = dp.RunConfig(game="nash-cournot", graph=benchmark_graph(), horizon=80,
                       x0=bench_init(), seed=5)
    base = dp.run(cfg)
    theta_hat = 1.0 / base.min_y_diag
    bound = dp.sensitivity_bound(cournot.L, theta_hat, 1)

    rng = np.random.default_rng(77)
    world = World(cfg)
    worst = 0.0
    checks = 0
    for t_hat in sorted(rng.choice(np.arange(1, 61), size=20, replace=False)):
        while world.t < t_hat:
            world.step()
        pre = copy.deepcopy(world)
        world.step()
        for _ in range(5):  # 5 perturbations x 20 times = 100
            i0 = int(rng.integers(5))
            g_prime = rng.uniform(-cournot.L, cournot.L, size=1)
            twin = copy.deepcopy(pre)
            twin.game = _perturbed_price_game(cournot, i0, int(t_hat), g_prime)
            twin.step()
            dev = float(np.abs(world.b[i0] - twin.b[i0]).sum())
            worst = max(worst, dev)
            checks += 1
            assert dev <= bound + 1e-9
    ok = checks == 100 and worst <= bound
    assert report("A7 sensitivity bound", ok,
                  f"max one-step l1 deviation {worst:.4g} <= 2*L*theta*sqrt(m) = {bound:.4g}")


def _perturbed_price_game(game, agent, t_hat, g_prime):
    """Adjacent cost sequence: agent's private price term replaced at one round."""
    partials = cournot_partials()
    original = partials["grad_own"]

    def grad_own(i, t, x_i, psi_val):
        if i == agent and t == t_hat:
            return g_prime
        return original(i, t, x_i, psi_val)

    # grad_own takes one agent at a time, so the game is built per agent
    return per_agent_copy(game, **{**partials, "grad_own": grad_own})


def test_a8_structural_invariants():
    import dataclasses
    cfg = dataclasses.replace(preset("fig6-random-delays"), horizon=600)
    delays = cfg.delays.with_seed(cfg.seed)

    worst_w = worst_aug = 0.0
    for t in range(cfg.horizon):
        W = cfg.graph.weights_at(t)
        worst_w = max(worst_w, float(np.abs(W.sum(axis=1) - 1.0).max()))
        A = dp.augment(W, delays.comm_matrix(t, 5), delays.tau_max)
        worst_aug = max(worst_aug, float(np.abs(A.sum(axis=1) - 1.0).max()))
    stochastic_ok = worst_w <= 1e-12 and worst_aug <= 1e-12

    res = dp.run(cfg)
    direct = np.cumsum(res.x, axis=0) / np.arange(1, cfg.horizon + 2)[:, None, None]
    avg_ok = float(np.abs(res.x_hat - direct).max()) <= 1e-12

    counted = res.messages_enqueued == res.messages_delivered + res.messages_pending
    expected_sent = expected_delivered = 0
    for s in range(cfg.horizon):
        W = cfg.graph.weights_at(s)
        for sender in range(5):
            for receiver in range(5):
                if receiver != sender and W[receiver, sender] > 0:
                    expected_sent += 1
                    expected_delivered += (
                        s + delays.comm_delay(receiver, sender, s) <= cfg.horizon - 1)
    delivery_ok = (counted and res.messages_enqueued == expected_sent
                   and res.messages_delivered == expected_delivered)

    game4 = small_linear_game(4)
    res4 = dp.run(dp.RunConfig(game=game4, graph=complete_graph(4), horizon=100,
                               x0=np.array([[1.0], [-2.0], [0.5], [3.0]]), seed=0))
    conservation = float(np.abs(res4.v.sum(axis=(1, 2)) - res4.x_hat.sum(axis=(1, 2))).max())
    conservation_ok = conservation <= 1e-9

    ok = stochastic_ok and avg_ok and delivery_ok and conservation_ok
    assert report("A8 structural invariants", ok,
                  f"row sums {max(worst_w, worst_aug):.1e}; running-average ok: {avg_ok}; "
                  f"delivery exact: {delivery_ok}; conservation {conservation:.1e}")


def test_a9_gradient_and_monotonicity_oracles(cournot):
    rng = np.random.default_rng(90)
    lo, hi = cournot.box_lo, cournot.box_hi

    fd_ok = True
    h = 1e-5
    for _ in range(100):
        x = lo + (0.05 + 0.9 * rng.random(lo.shape)) * (hi - lo)
        i = int(rng.integers(5))
        t = int(rng.integers(0, 60))

        def f(s):
            xs = x.copy()
            xs[i, 0] = s
            return cournot.cost_fn(i, t, xs[i], cournot.aggregate(xs))

        numeric = (f(x[i, 0] + h) - f(x[i, 0] - h)) / (2 * h)
        analytic = cournot.local_gradient(i, t, x[i], cournot.aggregate(x))[0]
        fd_ok &= math.isclose(analytic, numeric, rel_tol=1e-6, abs_tol=1e-6)

    mono_ok = True
    for _ in range(1000):
        x = lo + rng.random(lo.shape) * (hi - lo)
        y = lo + rng.random(lo.shape) * (hi - lo)
        dg = cournot.pseudogradient(3, x) - cournot.pseudogradient(3, y)
        dx = x - y
        mono_ok &= float((dg * dx).sum()) >= (1 - 1e-9) * float((dx * dx).sum())

    nonexp_ok = True
    for _ in range(1000):
        u, v = rng.normal(0, 30, 2), rng.normal(0, 30, 2)
        eta = float(rng.uniform(0.01, 2.0))
        blo, bhi = np.array([-3.0, 1.0]), np.array([4.0, 2.5])
        d = np.linalg.norm(dp.project(u, eta, blo, bhi) - dp.project(v, eta, blo, bhi))
        nonexp_ok &= d <= eta * np.linalg.norm(u - v) + 1e-12

    ok = fd_ok and mono_ok and nonexp_ok
    assert report("A9 gradient/monotonicity/projection oracles", ok,
                  f"finite differences: {fd_ok}, mu>=1: {mono_ok}, nonexpansive: {nonexp_ok}")


def test_a10_ne_oracle_correctness(cournot):
    sol = dp.ne_oracle(cournot, 0, tol=1e-10)
    corner_ok = bool(np.allclose(sol.x_star.ravel(), [5, 10, 8, 12, 6], atol=1e-8))

    rng = np.random.default_rng(10)
    tol = 1e-10
    starts_ok = True
    for _ in range(10):
        x0 = cournot.box_lo + rng.random((5, 1)) * (cournot.box_hi - cournot.box_lo)
        other = dp.ne_oracle(cournot, 0, tol=tol, x0=x0)
        starts_ok &= float(np.linalg.norm(other.x_star - sol.x_star)) <= 10 * tol

    c = np.array([-6.0, 2.0, 10.0])
    toy = dp.linear_demand_game(c, [-1e6] * 3, [1e6] * 3)
    toy_sol = dp.ne_oracle(toy, 0, tol=1e-12)
    direct = np.linalg.solve(np.eye(3) + np.ones((3, 3)), -c)
    toy_ok = bool(np.allclose(toy_sol.x_star.ravel(), direct, atol=1e-10))

    ok = corner_ok and starts_ok and toy_ok
    assert report("A10 equilibrium oracle", ok,
                  f"corner: {corner_ok}, multi-start: {starts_ok}, closed form: {toy_ok}")


def test_a11_mixing_diagnostics(bench_graph):
    md = dp.mixing_diagnostics(bench_graph, dp.DelaySchedule.fixed(2, comm={(3, 1): 2}), 80)
    ok = (0.0 < md.lambda_hat < 1.0 and md.r_squared > 0.95 and md.min_pi_real > 0.0)
    assert report("A11 mixing diagnostics", ok,
                  f"lambda {md.lambda_hat:.3f}, R^2 {md.r_squared:.4f}, "
                  f"min real-agent pi {md.min_pi_real:.3f}")
