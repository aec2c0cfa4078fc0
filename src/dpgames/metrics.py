"""Equilibrium oracle, dynamic regret, average loss, and stabilization stats."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .game import GameSpec, _sum_in_order, clip_to_box


class OracleError(RuntimeError):
    """The equilibrium iteration failed: its forward-backward residual
    (step mu / L_F^2) was not finite or stopped falling, or the game is not
    strongly monotone."""


@dataclass(frozen=True)
class EquilibriumSolution:
    t: int
    x_star: np.ndarray  # (V, m)
    residual: float
    iterations: int


def _lipschitz_estimate(game: GameSpec, t: int, samples: int = 64, seed: int = 0) -> float:
    """Sampled bound on the pseudogradient's Lipschitz constant: the
    largest ||F_t(u) - F_t(w)|| / ||u - w|| over ``samples`` random pairs of
    profiles in the box, all evaluated in one row-form gradient call.
    """
    V, m = game.num_agents, game.dim
    rng = np.random.default_rng(seed)
    x = game.box_lo + rng.random((samples, 2, V, m)) * (game.box_hi - game.box_lo)  # pairs (u, w)
    rows = x.reshape(-1, m)
    agg = _sum_in_order(game.psi_values(rows).reshape(-1, V, m)) / V
    g = game.gradients(t, rows, np.repeat(agg, V, axis=0)).reshape(samples, 2, -1)
    x = x.reshape(samples, 2, -1)
    du = np.linalg.norm(x[:, 0] - x[:, 1], axis=1)
    dg = np.linalg.norm(g[:, 0] - g[:, 1], axis=1)
    keep = du >= 1e-12
    best = float(np.fmax.reduce(dg[keep] / du[keep], initial=0.0))  # NaN ratios are skipped
    if best == 0.0:
        raise OracleError("could not estimate a Lipschitz constant (degenerate game?)")
    return 1.1 * best


PHI = 1.5  # aGRAAL's averaging ratio, in (1, golden ratio]
RHO = 1 / PHI + 1 / PHI ** 2  # largest growth of the step from one iteration to the next


def ne_oracle(game: GameSpec, t: int, tol: float = 1e-10,
              x0: Optional[np.ndarray] = None, max_iter: int = 200000) -> EquilibriumSolution:
    """Unique equilibrium at time t via an adaptive golden-ratio iteration.

    A tuned variant of Malitsky's aGRAAL ("Golden ratio algorithms for
    variational inequalities", Math. Prog. 2020, Algorithm 2): one
    pseudogradient call per iteration, the step set by the local curvature
    of F_t:

        lam_k   = min(rho lam_{k-1}, phi theta_{k-1} ||x_k - x_{k-1}||^2
                      / (4 lam_{k-1} ||F_t(x_k) - F_t(x_{k-1})||^2))
        xbar_k  = ((phi - 1) x_k + xbar_{k-1}) / phi
        x_{k+1} = clip(xbar_k - lam_k F_t(x_k)),  theta_k = phi lam_k / lam_{k-1}

    with phi = 1.5, rho = 1/phi + 1/phi^2, xbar_0 = x_0, lam_0 = 1 / L_F and
    theta_0 = phi. It departs from the paper's Algorithm 2 in three ways:
    the step has no upper cap (the paper's lam-bar), theta_0 is phi, not 1,
    and xbar_0 is x_0, not x_1. So the paper's convergence theorem does not
    cover it: a result is accepted only by the stop test below, and a run
    that does not converge ends in the stall guard's or ``max_iter``'s
    OracleError. L_F is the pseudogradient Lipschitz constant (analytic
    when the game provides one, sampled otherwise); it sets only the first
    step and the stopping test, and an understated L_F still converged on
    the tested games. Each iteration first tests the forward-backward
    residual ||x - clip(x - alpha F_t(x))||, alpha = mu / L_F^2, at the same F_t(x),
    and returns clip(x - alpha F_t(x)) once it is <= tol, so the KKT
    violation of the result is at most tol / alpha. ``iterations`` counts
    iterations, one pseudogradient call each: 226 on the benchmark's
    20-agent scaling game from the box midpoint, where extragradient took
    453 at two calls each. A start that has already converged costs one.
    """
    if not 0 < tol < np.inf:  # also rejects NaN
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if game.mu <= 0:
        raise OracleError(f"game must be strongly monotone (mu > 0), got mu={game.mu}")
    L_F = game.grad_lipschitz or _lipschitz_estimate(game, t)
    alpha = game.mu / (L_F * L_F)

    lo, hi = game.box_lo, game.box_hi
    x = (lo + hi) / 2.0 if x0 is None else clip_to_box(
        np.asarray(x0, float).reshape(game.num_agents, game.dim), lo, hi)
    best_residual = np.inf
    stall = 0
    lam, theta, x_bar = 1.0 / L_F, PHI, x  # theta_0: as if the step before the first were 1 / L_F
    for k in range(1, max_iter + 1):
        g = game.pseudogradient(t, x)
        x_fb = clip_to_box(x - alpha * g, lo, hi)
        d = (x - x_fb).ravel()
        residual = math.sqrt(np.dot(d, d))  # np.linalg.norm's sum of squares and root
        if residual <= tol:
            return EquilibriumSolution(t=t, x_star=x_fb, residual=residual, iterations=k)
        if residual < best_residual * (1 - 1e-12):  # never true of NaN or inf
            best_residual = residual
            stall = 0
        elif not np.isfinite(residual):
            raise OracleError(f"non-finite residual at round {t}, iteration {k}: the start "
                              "or the game's gradient is not finite")
        else:
            stall += 1
            if stall > 2000:
                raise OracleError(
                    f"no contraction after {k} iterations (residual {residual:.3e};"
                    f" mu={game.mu}, L_F={L_F}); check the configured constants")
        if k > 1:
            dx, dg = (x - x_prev).ravel(), (g - g_prev).ravel()
            dg2 = np.dot(dg, dg)
            step = min(RHO * lam, PHI * theta * np.dot(dx, dx) / (4 * lam * dg2)) if dg2 > 0 else RHO * lam
            theta, lam = PHI * step / lam, step
            x_bar = ((PHI - 1) * x + x_bar) / PHI
        x_prev, g_prev = x, g
        x = clip_to_box(x_bar - lam * g, lo, hi)
    raise OracleError(f"oracle did not reach tol={tol} in {max_iter} iterations "
                      f"(best residual {best_residual:.3e})")


def solve_equilibria(game: GameSpec, times: Sequence[int], tol: float = 1e-10) -> list[EquilibriumSolution]:
    """Oracle solutions for a range of rounds, warm-starting each from the last.

    The result is bit-identical to calling ``ne_oracle`` round by round with
    the previous round's ``x_star`` as ``x0``. Rounds whose warm start is
    already their forward-backward fixed point, clip(x - alpha_t F_t(x)) equal
    to x byte for byte, are settled together in one row-form gradient call:
    after an oracle round that ends where it started, the next 1, 2, 4, ...
    rounds are screened at once, and the first round that moves goes back to
    ``ne_oracle``. A settled round reports residual 0.0 and ``iterations ==
    1``, as the oracle would from that start.
    """
    times = list(times)
    V, m = game.num_agents, game.dim
    out: list[EquilibriumSolution] = []
    x = None
    chunk = 0  # rounds to screen next; 0 sends the next round to ne_oracle
    while len(out) < len(times):
        if not chunk:
            sol = ne_oracle(game, times[len(out)], tol=tol, x0=x)
            out.append(sol)
            unmoved = x is not None and sol.x_star.tobytes() == x.tobytes()
            x, chunk = sol.x_star, int(unmoved)
            continue
        ts = times[len(out):len(out) + chunk]
        L_F = np.array([game.grad_lipschitz or _lipschitz_estimate(game, t) for t in ts])
        alpha = (game.mu / (L_F * L_F))[:, None, None]  # ne_oracle's step, round by round
        g = game.gradients(np.repeat(ts, V), np.tile(x, (len(ts), 1)),
                           np.full((len(ts) * V, m), game.aggregate(x))).reshape(-1, V, m)
        x_fb = clip_to_box(x - alpha * g, game.box_lo, game.box_hi)
        same = (x_fb.view(np.uint64) == x.view(np.uint64)).all(axis=(1, 2))
        k = len(ts) if same.all() else int(same.argmin())
        out.extend(EquilibriumSolution(t=t, x_star=x.copy(), residual=0.0, iterations=1) for t in ts[:k])
        chunk = 2 * chunk if k == len(ts) else 0
    return out


def kkt_max_violation(game: GameSpec, t: int, x: np.ndarray, face_tol: float = 1e-9) -> float:
    """Max violation of the box-KKT conditions of the VI at x.

    Per agent and coordinate: at a lower face the gradient must be >= 0, at
    an upper face <= 0, in the interior ~0; returns the largest violation.
    """
    x = np.asarray(x, float).reshape(game.num_agents, game.dim)
    g = game.pseudogradient(t, x)
    at_lo = x <= game.box_lo + face_tol
    at_hi = x >= game.box_hi - face_tol
    violation = np.where(at_lo, -g, np.where(at_hi, g, np.abs(g)))
    violation[at_lo & at_hi] = 0.0  # degenerate box
    return float(np.max(violation, initial=0.0))


# ---------------------------------------------------------------------------
# Regret and loss series


@dataclass(frozen=True)
class RegretReport:
    """Cumulative dynamic regret over the rounds of a trajectory.

    ``cumulative[k]`` sums the per-round gaps over the first k+1 rounds,
    where the per-round gap for agent i evaluates its played action against
    the equilibrium profile of the others minus the full equilibrium cost.
    ``cumulative_mean`` is the (1/V)-scaled variant; both conventions appear
    in the literature, so both are reported.
    """

    times: np.ndarray                 # (N,) round indices
    increments: np.ndarray            # (N, V)
    per_agent_cumulative: np.ndarray  # (N, V)
    cumulative: np.ndarray            # (N,)
    cumulative_mean: np.ndarray       # (N,)
    average_loss: Optional[np.ndarray] = None  # (N, V) when losses were supplied

    def total(self) -> float:
        return float(self.cumulative[-1])


def dynamic_regret(game: GameSpec, x_traj: np.ndarray,
                   solutions: Sequence[EquilibriumSolution],
                   losses: Optional[np.ndarray] = None) -> RegretReport:
    """Dynamic regret of a played trajectory against per-round equilibria.

    ``x_traj`` has shape (N, V, m) with round r of the trajectory matching
    ``solutions[r]``; every round present is summed, including the initial
    one. The first term of each gap evaluates agent i's actual action inside
    the others' equilibrium profile (aggregate recomputed accordingly).
    """
    x_traj = np.asarray(x_traj, float)
    N, V, m = x_traj.shape[0], game.num_agents, game.dim
    if len(solutions) != N:
        raise ValueError(f"horizon mismatch: {N} trajectory rounds, {len(solutions)} oracle solutions")
    times = np.array([s.t for s in solutions])
    # every round at once: (N V, m) tables of stacked (V, m) blocks, row times t
    t = np.repeat(times, V)
    x_star = np.stack([s.x_star for s in solutions]).reshape(-1, m)
    x_played = x_traj.reshape(-1, m)
    psi_star = game.psi_values(x_star).reshape(N, V, m)
    psi_sum = _sum_in_order(psi_star)[:, None]
    mixed_agg = (psi_sum - psi_star + game.psi_values(x_played).reshape(N, V, m)) / V
    increments = (game.costs(t, x_played, mixed_agg) - game.costs(
        t, x_star, np.broadcast_to(psi_sum / V, psi_star.shape))).reshape(N, V)
    per_agent = np.cumsum(increments, axis=0)
    cum = per_agent.sum(axis=1)
    avg = average_loss(losses) if losses is not None else None
    return RegretReport(times=times, increments=increments, per_agent_cumulative=per_agent,
                        cumulative=cum, cumulative_mean=cum / V, average_loss=avg)


def average_loss(losses: np.ndarray) -> np.ndarray:
    """Running mean over rounds of a loss series; shape in == shape out.

    ``losses`` is (N,) or (N, V); entry t of the result averages rounds
    0..t of the input. Callers choose which rounds to feed (the benchmark
    figures' series corresponds to feeding rounds 1..T of the local-estimate
    loss column).
    """
    losses = np.asarray(losses, float)
    if losses.size == 0:
        raise ValueError("empty loss series")
    n = np.arange(1, losses.shape[0] + 1, dtype=float)
    if losses.ndim == 1:
        return np.cumsum(losses) / n
    return np.cumsum(losses, axis=0) / n[:, None]


@dataclass(frozen=True)
class StabilizationStat:
    rel_std: float    # tail std / |tail mean| (absolute std when degenerate)
    slope: float      # least-squares slope over the tail, per step
    degenerate: bool  # tail mean ~ 0, rel_std reported as absolute std


def stabilization_stat(series: np.ndarray, tail_fraction: float = 0.1) -> StabilizationStat:
    """Dispersion and drift of the trailing fraction of a series."""
    series = np.asarray(series, float)
    if not (0 < tail_fraction <= 1):
        raise ValueError(f"tail fraction must be in (0, 1], got {tail_fraction}")
    if series.ndim != 1:
        raise ValueError("stabilization_stat expects a 1-d series")
    if series.size < 10 / tail_fraction:
        raise ValueError(
            f"series of length {series.size} too short for tail fraction {tail_fraction}")
    k = max(2, int(round(series.size * tail_fraction)))
    tail = series[-k:]
    steps = np.arange(k, dtype=float)
    A = np.vstack([steps, np.ones(k)]).T
    slope = float(np.linalg.lstsq(A, tail, rcond=None)[0][0])
    mean = float(tail.mean())
    std = float(tail.std())
    if abs(mean) < 1e-300:
        return StabilizationStat(rel_std=std, slope=slope, degenerate=True)
    return StabilizationStat(rel_std=std / abs(mean), slope=slope, degenerate=False)


def stabilization_time(series: np.ndarray, tail_fraction: float = 0.1,
                       rel_std_max: float = 0.05, slope_max: float = 1e-2,
                       stride: int = 10) -> Optional[int]:
    """Earliest prefix length at which the tail criterion holds, or None.

    Scans prefix lengths on a stride grid; the criterion is
    rel_std < rel_std_max and |slope| < slope_max on the trailing fraction.
    """
    series = np.asarray(series, float)
    start = int(np.ceil(10 / tail_fraction))
    for n in range(start, series.size + 1, stride):
        st = stabilization_stat(series[:n], tail_fraction)
        if not st.degenerate and st.rel_std < rel_std_max and abs(st.slope) < slope_max:
            return n
    return None
