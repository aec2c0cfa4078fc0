"""Equilibrium oracle, dynamic regret, average loss, and stabilization stats."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .game import GameSpec, _sum_in_order, clip_to_box


class OracleError(RuntimeError):
    """The equilibrium iteration failed: its forward-backward residual
    (step mu / L_F^2) was not finite, stopped falling for 2000 iterations or
    did not reach the tolerance in ``MAX_ITER``, or the game does not
    declare mu > 0 and a finite, positive grad_lipschitz L_F."""


@dataclass(frozen=True)
class EquilibriumSolution:
    t: int
    x_star: np.ndarray  # (V, m)
    residual: float
    iterations: int


MEMORY = 5  # Anderson memory: differences of up to the last MEMORY + 1 iterates
# extrapolate only while ||f|| <= D ||f_1|| (n / MEMORY + 1)^-(1 + eps)
SAFEGUARD_D, SAFEGUARD_EPS = 1e6, 1e-6
RIDGE = 1e-14  # relative Tikhonov term on the diagonal of the normal equations
MAX_ITER = 200000  # ne_oracle's iteration budget


def _step_constants(game: GameSpec) -> tuple[float, float]:
    """(L_F, alpha = mu / L_F^2): the game's declared pseudogradient
    Lipschitz constant and the forward-backward step of the stop test."""
    if not game.mu > 0:  # also rejects NaN
        raise OracleError(f"game must be strongly monotone (mu > 0), got mu={game.mu}")
    L_F = game.grad_lipschitz
    if L_F is None or not 0 < L_F < np.inf:
        raise OracleError(f"the oracle needs the game's grad_lipschitz, finite and positive, got {L_F}")
    return L_F, game.mu / (L_F * L_F)


def _anderson_weights(A: np.ndarray, f: np.ndarray) -> Optional[list[float]]:
    """gamma minimizing ||f - A^T gamma||: Gaussian elimination, without
    pivoting, on the normal equations A A^T gamma = A f with the diagonal
    raised by the relative ``RIDGE``, which keeps them solvable when the
    rows outnumber a face pattern's free coordinates. None at a pivot that
    is not positive (a zero or non-finite row). Python floats, not
    numpy.linalg: that enters ``np.errstate(call=...)``, after which the
    benchmark's later twin and verify stages ran about 11% slower.
    """
    n = len(A)
    G = A @ A.T
    G.flat[::n + 1] *= 1.0 + RIDGE
    M = [row + [b] for row, b in zip(G.tolist(), (A @ f).tolist())]
    for j in range(n):
        pivot = M[j][j]
        if not pivot > 0:  # also NaN
            return None
        for i in range(j + 1, n):
            c = M[i][j] / pivot
            M[i] = [a - c * b for a, b in zip(M[i], M[j])]
    gamma = [0.0] * n
    for j in reversed(range(n)):
        gamma[j] = (M[j][n] - sum(M[j][k] * gamma[k] for k in range(j + 1, n))) / M[j][j]
    return gamma


def ne_oracle(game: GameSpec, t: int, tol: float = 1e-10,
              x0: Optional[np.ndarray] = None) -> EquilibriumSolution:
    """Unique equilibrium at time t: the fixed point of the forward-backward
    map T_t(x) = clip(x - alpha F_t(x)), alpha = mu / L_F^2, by safeguarded
    Anderson acceleration (Walker and Ni, SIAM J. Numer. Anal. 2011).

    Each iteration makes one pseudogradient call, at x, and returns T_t(x)
    once ||T_t(x) - x|| <= tol, so the result's KKT violation is at most
    tol / alpha = tol L_F^2 / mu. Otherwise the next point is
    clip(T_t(x) - dT gamma), gamma = argmin ||f - dF gamma||, where
    f = T_t(x) - x and the columns of dF and dT are differences of f and of
    T_t(x) over the last ``MEMORY`` steps (``_anderson_weights``). For an
    affine F_t, T_t is affine while its clipped coordinates stay on the same
    faces, so the memory starts over when they change. The safeguard of
    Zhang, O'Donoghue and Boyd (SIAM J. Optim. 2020) takes the plain step
    T_t(x) instead while ||f|| > D ||f_1|| (n / MEMORY + 1)^-(1 + eps), n the
    extrapolations so far; with D = 1e6 it turns away only residuals far
    past the first, so an understated L_F, whose T_t expands, still
    converges. A pivot that is not positive also gives the plain step.

    L_F is the game's declared ``grad_lipschitz``; a game without one, or
    with mu <= 0, raises OracleError before any gradient call. A result is
    accepted by the stop test alone: a non-finite residual, 2000 iterations
    without a new best residual, or ``MAX_ITER`` iterations raise
    OracleError. ``iterations`` counts pseudogradient calls: 14 on the
    benchmark's 20-agent scaling game from the box midpoint, where the
    adaptive golden-ratio method took 226 and extragradient 453 iterations
    at two calls each. A start that has already converged costs one.
    """
    if not 0 < tol < np.inf:  # also rejects NaN
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    L_F, alpha = _step_constants(game)

    lo, hi = game.box_lo, game.box_hi
    x = (lo + hi) / 2.0 if x0 is None else clip_to_box(
        np.asarray(x0, float).reshape(game.num_agents, game.dim), lo, hi)
    best_residual = np.inf
    stall = 0
    dF, dT = np.empty((2, MEMORY, x.size))  # rows: differences of f and of T_t(x), oldest first
    cols, faces, extrapolations = 0, None, 0
    for k in range(1, MAX_ITER + 1):
        g = game.pseudogradient(t, x)
        y = x - alpha * g
        x_fb = clip_to_box(y, lo, hi)
        f = (x_fb - x).ravel()
        residual = math.sqrt(np.dot(f, f))  # np.linalg.norm's sum of squares and root
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
        if k == 1:
            bound = SAFEGUARD_D * residual  # the safeguard's D ||f_1||
        T_x = x_fb.ravel()
        clipped = np.sign(y - x_fb).tobytes()  # the face each coordinate is clipped to, or 0
        if clipped != faces:
            faces, cols = clipped, 0
        else:
            if cols == MEMORY:
                dF[:-1], dT[:-1] = dF[1:], dT[1:]
                cols -= 1
            dF[cols], dT[cols] = f - f_prev, T_x - T_prev
            cols += 1
        f_prev, T_prev = f, T_x
        if cols and residual <= bound * (extrapolations / MEMORY + 1) ** -(1 + SAFEGUARD_EPS):
            gamma = _anderson_weights(dF[:cols], f)
            if gamma is None:  # a zero difference: start the memory over
                cols = 0
            else:
                T_x = T_x - np.dot(gamma, dT[:cols])
                extrapolations += 1
        x = clip_to_box(T_x.reshape(x.shape), lo, hi)
    raise OracleError(f"oracle did not reach tol={tol} in {MAX_ITER} iterations "
                      f"(best residual {best_residual:.3e})")


def solve_equilibria(game: GameSpec, times: Sequence[int], tol: float = 1e-10) -> list[EquilibriumSolution]:
    """Oracle solutions for a range of rounds, warm-starting each from the last.

    The result is bit-identical to calling ``ne_oracle`` round by round with
    the previous round's ``x_star`` as ``x0``. Rounds whose warm start is
    already their forward-backward fixed point, clip(x - alpha F_t(x)) equal
    to x byte for byte, with ne_oracle's alpha = mu / L_F^2, are settled together in one row-form gradient call:
    after an oracle round that ends where it started, the next 1, 2, 4, ...
    rounds are screened at once, and the first round that moves goes back to
    ``ne_oracle``. A settled round reports residual 0.0 and ``iterations ==
    1``, as the oracle would from that start.
    """
    times = list(times)
    V, m = game.num_agents, game.dim
    alpha = _step_constants(game)[1]  # ne_oracle's stop-test step
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
