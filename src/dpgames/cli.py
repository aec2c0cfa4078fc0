"""Config loading, scenario presets, and the command-line front end.

Subcommands: run, verify, sweep, presets, ne-oracle. Configuration files are
JSON with keys game, graph, delays, privacy, horizon, gamma, init, seed,
output (plus cold_start and run_id); see README for the schema. Records are
written either as comma-separated tables with a header row or as one JSON
object per line, UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import engine, metrics
from .engine import RunConfig, RunResult
from .game import GAME_REGISTRY
from .graph import (DelaySchedule, GraphSchedule, augment, strict_bool, strict_int,
                    validate_b_connectivity)
from .privacy import NoiseConfig

REQUIRED_KEYS = ("game", "graph", "horizon")
OPTIONAL_KEYS = ("delays", "privacy", "gamma", "init", "seed", "output",
                 "cold_start", "run_id")
SWEEP_AXES = ("gamma", "epsilon", "tau_max", "seed", "T", "horizon")
# what reading a malformed value or block of a config can raise
_MALFORMED = (AttributeError, LookupError, OverflowError, TypeError, ValueError)


class ConfigError(ValueError):
    """One message per config problem, joined for display."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# ---------------------------------------------------------------------------
# Config <-> dict <-> file


def _parsed(errors: list, prefix: str, parse, *args, default=None):
    """``parse(*args)``, or ``default`` once what it raised is itemized in ``errors``."""
    try:
        return parse(*args)
    except _MALFORMED as e:
        errors.append(prefix + str(e))
        return default


def _number(value, what: str) -> float:
    """``value`` as a float when it is a number and not a bool; TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def config_from_dict(raw: dict) -> RunConfig:
    errors = []
    unknown = set(raw) - set(REQUIRED_KEYS) - set(OPTIONAL_KEYS)
    if unknown:
        errors.append(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        errors.append(f"missing required keys: {missing}")
    if errors:
        raise ConfigError(errors)

    game = raw["game"]
    if isinstance(game, dict):
        game = game.get("name")
    num_agents = None
    if isinstance(game, str) and game in GAME_REGISTRY:
        num_agents = GAME_REGISTRY[game]().num_agents
    else:
        errors.append(f"unknown game {game!r}; registered: {sorted(GAME_REGISTRY)}")

    scalars = {key: _parsed(errors, "", strict_int, raw.get(key, default), key)
               for key, default in (("horizon", None), ("seed", 0))}
    scalars["gamma"] = _parsed(errors, "", _number, raw.get("gamma", 1.0), "gamma")

    # each graph key is read on its own, so one bad value hides no other
    graph, b_window, validate_conn = None, 1, False
    graph_block = _parsed(errors, "graph: ", dict, raw["graph"])
    if graph_block is not None:
        b_window = _parsed(errors, "graph: ", strict_int, graph_block.pop("b_window", 1), "b_window")
        validate_conn = _parsed(errors, "graph: ", strict_bool,
                                graph_block.pop("validate_connectivity", False),
                                "validate_connectivity")
        # the agent count is compared before the graph is built, which takes
        # time and memory per agent; an unknown game (reported above) skips both
        n = _parsed(errors, "graph: ", lambda: strict_int(graph_block["num_agents"], "num_agents"))
        if n is not None and num_agents is not None:
            if n != num_agents:
                errors.append(f"graph has {n} agents, game has {num_agents}")
            else:
                graph = _parsed(errors, "graph: ", GraphSchedule.from_descriptor, graph_block)

    delays = DelaySchedule.none()
    if "delays" in raw:
        delays = _parsed(errors, "delays: ", DelaySchedule.from_descriptor, raw["delays"])

    noise = _parsed(errors, "privacy: ", NoiseConfig.from_descriptor, raw.get("privacy"))

    x0 = None
    if raw.get("init") is not None:
        x0 = _parsed(errors, "init: ", np.asarray, raw["init"], float)
        if x0 is not None and x0.ndim == 1:
            x0 = x0[:, None]

    output = _parsed(errors, "output: ", dict, raw.get("output") or {}, default={})
    fmt = output.get("format", "tabular")
    if fmt not in ("tabular", "object-lines"):
        errors.append(f"output format must be 'tabular' or 'object-lines', got {fmt!r}")

    if errors:
        raise ConfigError(errors)

    cfg = RunConfig(
        game=game, graph=graph, delays=delays, noise=noise,
        horizon=scalars["horizon"], gamma=scalars["gamma"],
        x0=x0, seed=scalars["seed"], b_window=b_window,
        validate_connectivity=validate_conn,
        cold_start=raw.get("cold_start", "clamp"),
        run_id=str(raw.get("run_id", "run")), output=output)
    more = cfg.validate()
    if more:
        raise ConfigError(more)
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical dict form; config_from_dict(config_to_dict(c)) reproduces c."""
    game_name = cfg.game if isinstance(cfg.game, str) else cfg.game.name
    graph_block = cfg.graph.to_descriptor()
    graph_block["b_window"] = cfg.b_window
    graph_block["validate_connectivity"] = cfg.validate_connectivity
    return {
        "game": game_name,
        "graph": graph_block,
        "delays": cfg.delays.to_descriptor(),
        "privacy": cfg.noise.to_descriptor(),
        "horizon": cfg.horizon,
        "gamma": cfg.gamma,
        "init": None if cfg.x0 is None else np.asarray(cfg.x0, float).tolist(),
        "seed": cfg.seed,
        "cold_start": cfg.cold_start,
        "run_id": cfg.run_id,
        "output": dict(cfg.output),
    }


def load_config(path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        raise ConfigError([f"empty config file {path}; required keys: {list(REQUIRED_KEYS)}"])
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"config {path} is not valid JSON: {e}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"config root must be an object with keys {list(REQUIRED_KEYS)}"])
    return config_from_dict(raw)


def write_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Scenario presets (the benchmark's six figure scenarios)


def benchmark_graph() -> GraphSchedule:
    """Five-agent unbalanced digraph: self-loops, directed ring, one chord,
    and an unreliable 2->4 link (0-based 1->3) absent at odd steps.
    """
    base = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
    return GraphSchedule.periodic(5, [base + [(1, 3)], base])


_BENCH_INIT = np.array([[-1.0], [2.0], [2.0], [5.0], [1.0]])


def _benchmark_config(run_id: str, **kw) -> RunConfig:
    base = dict(game="nash-cournot", graph=benchmark_graph(),
                delays=DelaySchedule.none(), noise=NoiseConfig.off(),
                horizon=2000, gamma=1.0, x0=_BENCH_INIT.copy(), seed=42,
                b_window=1, run_id=run_id)
    base.update(kw)
    return RunConfig(**base)


def preset(name: str) -> RunConfig:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError([f"unknown preset {name!r}; available: {sorted(PRESETS)}"])
    return factory()


PRESETS = {
    # baseline: eps = 0.2, sensitivity 1, no delays
    "fig2-baseline": lambda: _benchmark_config(
        "fig2-baseline", noise=NoiseConfig.fixed_epsilon(0.2, delta=1.0)),
    # ten-fold learning rate
    "fig3-high-lr": lambda: _benchmark_config(
        "fig3-high-lr", gamma=10.0, noise=NoiseConfig.fixed_epsilon(0.2, delta=1.0)),
    # tighter privacy
    "fig4-tight-privacy": lambda: _benchmark_config(
        "fig4-tight-privacy", noise=NoiseConfig.fixed_epsilon(0.1, delta=1.0)),
    # fixed two-step delay on the unreliable link, no privacy
    "fig5-fixed-delay": lambda: _benchmark_config(
        "fig5-fixed-delay", delays=DelaySchedule.fixed(2, comm={(3, 1): 2})),
    # random communication and feedback delays in [0, 10], no privacy
    "fig6-random-delays": lambda: _benchmark_config(
        "fig6-random-delays", delays=DelaySchedule.uniform(10)),
    # random delays plus privacy
    "fig7-random-delays-private": lambda: _benchmark_config(
        "fig7-random-delays-private", delays=DelaySchedule.uniform(10),
        noise=NoiseConfig.fixed_epsilon(0.2, delta=1.0)),
}

PRESET_NOTES = {
    "fig2-baseline": "eps=0.2, sensitivity 1, gamma=1, no delays",
    "fig3-high-lr": "baseline with gamma=10",
    "fig4-tight-privacy": "baseline with eps=0.1",
    "fig5-fixed-delay": "tau(4<-2)=2 fixed, no privacy",
    "fig6-random-delays": "comm and feedback delays uniform on [0,10], no privacy",
    "fig7-random-delays-private": "random delays plus eps=0.2",
}


# ---------------------------------------------------------------------------
# Record emission


def _vec_columns(stem: str, m: int) -> list[str]:
    return [stem] if m == 1 else [f"{stem}_{k}" for k in range(m)]


def _running_average(loss: np.ndarray) -> np.ndarray:
    """Row 0 keeps the round-0 losses; row t >= 1 averages rounds 1..t,
    matching the benchmark figures' series."""
    if len(loss) == 1:
        return loss
    return np.concatenate([loss[:1], metrics.average_loss(loss[1:])])


def _record_table(result: RunResult) -> list[list[float]]:
    """One row of floats per (t, agent), t ascending: x, x_hat, v (m each),
    then b_norm, loss, avg_loss, loss_true, avg_loss_true.
    """
    m = result.x.shape[2]
    b = result.b.reshape(-1, m)
    # row-wise dot products: the same dot that np.linalg.norm takes per row,
    # so the digits match a per-row norm for every m
    b_norm = np.sqrt(b[:, None, :] @ b[:, :, None]).reshape(-1, 1)
    scalars = [result.loss_local, _running_average(result.loss_local),
               result.loss_true, _running_average(result.loss_true)]
    return np.hstack([result.x.reshape(-1, m), result.x_hat.reshape(-1, m),
                      result.v.reshape(-1, m), b_norm]
                     + [a.reshape(-1, 1) for a in scalars]).tolist()


def write_records(result: RunResult, path, fmt: str) -> None:
    if fmt not in ("tabular", "object-lines"):
        raise ConfigError([f"unknown output format {fmt!r}"])
    V, m = result.x.shape[1:]
    run_id, seed = result.config.run_id, result.config.seed
    table = _record_table(result)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "tabular":
            header = (["run_id", "seed", "t", "agent"]
                      + _vec_columns("x", m) + _vec_columns("x_hat", m)
                      + _vec_columns("v", m)
                      + ["b_norm", "loss", "avg_loss", "loss_true", "avg_loss_true"])
            fh.write(",".join(header) + "\n")
            for k, row in enumerate(table):
                t, i = divmod(k, V)
                fh.write(f"{run_id},{seed},{t},{i}," + ",".join(map(repr, row)) + "\n")
        else:
            for k, row in enumerate(table):
                t, i = divmod(k, V)
                b_norm, loss, avg_loss, loss_true, avg_loss_true = row[3 * m:]
                fh.write(json.dumps({
                    "run_id": run_id, "seed": seed, "t": t, "agent": i,
                    "x": row[:m], "x_hat": row[m:2 * m], "v": row[2 * m:3 * m],
                    "b_norm": b_norm, "loss": loss, "avg_loss": avg_loss,
                    "loss_true": loss_true, "avg_loss_true": avg_loss_true}) + "\n")


def run_summary(result: RunResult) -> dict:
    s = result.summary()
    s["empirical_theta"] = (float("inf") if result.min_y_diag == 0
                            else 1.0 / result.min_y_diag)
    stats = {}
    if result.horizon >= 100:
        for i in range(result.x.shape[1]):
            series = metrics.average_loss(result.loss_local[1:, i])
            st = metrics.stabilization_stat(series)
            stats[str(i)] = {"tail_rel_std": st.rel_std, "tail_slope": st.slope,
                             "degenerate": st.degenerate}
    s["stabilization"] = stats
    s["ledger"] = result.ledger.to_rows()
    return s


def write_summary(result: RunResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(run_summary(result), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def _resolve_config(args) -> RunConfig:
    if args.preset and args.config:
        raise ConfigError(["pass either --preset or --config, not both"])
    if args.preset:
        cfg = preset(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError(["one of --preset or --config is required"])
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "horizon", None) is not None:
        cfg = replace(cfg, horizon=args.horizon)
    errors = cfg.validate()
    if errors:
        raise ConfigError(errors)
    return cfg


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    fmt = args.format or cfg.output.get("format", "tabular")
    out = args.out or cfg.output.get("path") or f"{cfg.run_id}.{'csv' if fmt == 'tabular' else 'jsonl'}"
    result = engine.run(cfg)
    write_records(result, out, fmt)
    write_summary(result, str(out) + ".summary.json")
    print(f"wrote {out} and {out}.summary.json "
          f"(T={result.horizon}, eps_hat={result.ledger.epsilon_hat:g})")
    return 0


def verify_checks(cfg: RunConfig, equivalence_horizon: int = 50) -> list[tuple[str, bool, str]]:
    """The verification battery; every entry is (name, passed, detail).

    When no delay rule is ``uniform``, a round's (W, D, feedback) is a
    function of its edge set, so a round whose edge set an earlier round
    had passes or fails the per-round checks as that round did and is
    skipped: each distinct triple is checked once.
    """
    checks = []
    graph, delays = cfg.graph, cfg.delays.with_seed(cfg.seed)
    horizon = max(cfg.horizon, 1)
    scan = range(min(horizon, 256))

    missing = []
    for t in scan:
        edges = graph.edges_at(t)
        missing += [(i, t) for i in range(graph.num_agents) if (i, i) not in edges]
    checks.append(("self-loops", not missing,
                   "all agents have self-loops" if not missing
                   else f"missing self-loop, first at (agent, t) = {missing[0]}"))

    rep = validate_b_connectivity(graph, cfg.b_window, horizon)
    checks.append((f"connectivity(B={cfg.b_window})", rep.ok,
                   "strongly connected on every window" if rep.ok
                   else f"first violating window {rep.first_violation}"))

    bad_delay = None  # first round of the scan with a delay out of bounds
    worst_w = 0.0
    worst_aug = 0.0
    drawn = "uniform" in (delays.comm["type"], delays.feedback["type"])
    checked = set()  # edge sets checked so far, when no delay is drawn
    for t in range(horizon):
        phase = graph.phase_at(t)
        if not drawn:
            if phase.edges in checked:
                continue
            checked.add(phase.edges)
        W = phase.weights
        D = delays.comm_matrix(t, graph.num_agents)
        if bad_delay is None and t in scan:
            feedback = delays.feedback_delays(t, graph.num_agents)
            if (D.min() < 0 or D.max() > delays.tau_max or np.any(np.diag(D) != 0)
                    or feedback.min() < 0 or feedback.max() > delays.tau_max):
                bad_delay = t
        worst_w = max(worst_w, float(np.abs(W.sum(axis=1) - 1.0).max()))
        A = augment(W, D, delays.tau_max)
        worst_aug = max(worst_aug, float(np.abs(A.sum(axis=1) - 1.0).max()))
    checks.append(("delay-bounds", bad_delay is None,
                   f"delays within [0, {delays.tau_max}], tau_ii = 0" if bad_delay is None
                   else f"violation at t={bad_delay}"))
    checks.append(("row-stochastic", worst_w <= 1e-12, f"max row-sum error {worst_w:.2e}"))
    checks.append(("augmented-row-stochastic", worst_aug <= 1e-12,
                   f"max row-sum error {worst_aug:.2e}"))

    short = replace(cfg, horizon=min(horizon, equivalence_horizon))
    try:
        a = engine.run(short)
        b = engine.run_augmented_reference(short)
        diff = max(float(np.abs(a.b - b.b).max()), float(np.abs(a.x - b.x).max()),
                   float(np.abs(a.v - b.v).max()))
        # the two routes differ only in summation order, so agreement is
        # machine precision relative to the state magnitude
        scale = max(1.0, float(np.abs(a.b).max()), float(np.abs(a.v).max()))
        checks.append(("oracle-equivalence", diff <= 1e-12 * scale,
                       f"max |run - augmented reference| = {diff:.2e} "
                       f"(state scale {scale:.1e}) over T={short.horizon}"))
    except (ValueError, RuntimeError) as e:
        checks.append(("oracle-equivalence", False, f"run failed: {e}"))
    return checks


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    checks = verify_checks(cfg)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def derive_seed(master: int, axis: str, value) -> int:
    """Stable per-run sub-seed: first 8 bytes of sha256('{master}:{axis}:{value!r}')."""
    digest = hashlib.sha256(f"{master}:{axis}:{value!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _apply_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    if axis == "gamma":
        return replace(cfg, gamma=float(value))
    if axis in ("T", "horizon"):
        return replace(cfg, horizon=int(value))
    if axis == "seed":
        return replace(cfg, seed=int(value))
    if axis == "epsilon":
        noise = cfg.noise  # the member keeps the sensitivity mode, and a manual delta
        return replace(cfg, noise=NoiseConfig.fixed_epsilon(
            float(value), delta=noise.delta if noise.enabled else 1.0,
            sensitivity_mode=noise.sensitivity_mode, shared_draw=noise.shared_draw))
    if axis == "tau_max":
        d, tau_max = cfg.delays, int(value)
        if "fixed" in (d.comm["type"], d.feedback["type"]):
            raise ConfigError(["cannot sweep tau_max over a fixed-entry delay schedule"])
        # each rule keeps its type; a uniform rule keeps its low and takes
        # the swept value as its high
        rules = {name: rule if rule["type"] == "none" else {**rule, "high": tau_max}
                 for name, rule in (("comm", d.comm), ("feedback", d.feedback))}
        errors = [f"tau_max {tau_max} is below the {name} uniform low {low}"
                  for name, rule in rules.items() if (low := rule.get("low", 0)) > tau_max]
        if errors:
            raise ConfigError(errors)
        return replace(cfg, delays=DelaySchedule(tau_max, rules["comm"], rules["feedback"], d.seed))
    raise ConfigError([f"axis {axis!r} is not sweepable; choose from {SWEEP_AXES}"])


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    axis = args.axis
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ConfigError(["--values must be a non-empty comma-separated list"])
    # every member is built and validated before the first one runs
    members, errors = [], []
    for raw_value in values:
        try:
            value = float(raw_value) if axis not in ("seed",) else int(raw_value)
            if axis in ("T", "horizon", "tau_max") and not value.is_integer():
                raise ValueError(f"{axis} takes integer values")
            member = _apply_axis(cfg, axis, value)
        except _MALFORMED as e:  # ConfigError is a ValueError
            errors.append(f"--values {raw_value!r}: {e}")
            continue
        if axis != "seed":
            member = replace(member, seed=derive_seed(cfg.seed, axis, value))
        member = replace(member, run_id=f"{cfg.run_id}-{axis}-{raw_value}")
        errors += [f"--values {raw_value!r}: {e}" for e in member.validate()]
        members.append((raw_value, member))
    if errors:
        raise ConfigError(errors)
    rows = []
    for raw_value, member in members:
        result = engine.run(member)
        s = run_summary(result)
        tail = s["stabilization"].values()
        rows.append({
            "run_id": member.run_id, "axis": axis, "value": raw_value,
            "seed": member.seed, "horizon": member.horizon,
            "epsilon_hat": result.ledger.epsilon_hat,
            "min_y_ii": result.min_y_diag,
            "messages_delivered": result.messages_delivered,
            "final_x_hat": ";".join(repr(float(v)) for v in np.ravel(result.x_hat[-1])),
            "tail_rel_std_max": max((r["tail_rel_std"] for r in tail), default=""),
            "tail_slope_max_abs": max((abs(r["tail_slope"]) for r in tail), default=""),
        })
    out = args.out or f"{cfg.run_id}-sweep-{axis}.csv"
    cols = list(rows[0].keys())
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    print(f"wrote {out} ({len(rows)} runs)")
    return 0


def cmd_presets(args) -> int:
    for name in PRESETS:
        print(f"{name}: {PRESET_NOTES[name]}")
    return 0


def cmd_ne_oracle(args) -> int:
    if not 0 < args.tol < np.inf:  # also rejects NaN
        raise ConfigError([f"--tol must be finite and positive, got {args.tol}"])
    cfg = _resolve_config(args)
    game = cfg.resolved_game()
    sol = metrics.ne_oracle(game, args.time, tol=args.tol)
    kkt = metrics.kkt_max_violation(game, args.time, sol.x_star)
    print(f"t={sol.t} x*={np.ravel(sol.x_star).tolist()} "
          f"residual={sol.residual:.3e} iterations={sol.iterations} kkt={kkt:.3e}")
    return 0


def _add_config_args(p, with_overrides=True):
    p.add_argument("--config", type=str, help="path to a JSON config file")
    p.add_argument("--preset", type=str, help="name of a built-in scenario preset")
    if with_overrides:
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--horizon", type=int, default=None, help="override the horizon T")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpgames",
                                     description="private, delay-tolerant distributed "
                                                 "aggregative game simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a run and write records + summary")
    _add_config_args(p)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("tabular", "object-lines"), default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="connectivity, delay, stochasticity and oracle checks")
    _add_config_args(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="run a config across values of one parameter")
    _add_config_args(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("presets", help="list scenario presets")
    p.set_defaults(fn=cmd_presets)

    p = sub.add_parser("ne-oracle", help="solve the equilibrium at one round")
    _add_config_args(p, with_overrides=False)
    p.add_argument("--time", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_ne_oracle)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
