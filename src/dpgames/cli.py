"""Config loading, scenario presets, and the command-line front end.

Subcommands: run, verify, sweep, presets, ne-oracle. Configuration files are
JSON laid out by the table ``SCHEMA``, which both reads and writes them; see
README for the schema. A config is checked once, when ``engine.RunConfig``
builds it, and no subcommand checks it again. Records are written either as
comma-separated tables with a header row or as one JSON object per line,
UTF-8 with LF line endings.
"""

from __future__ import annotations

import math
import reprlib
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import engine
from .engine import ConfigError, NonFiniteStateError, RunConfig, RunResult
from .game import GAME_REGISTRY
from .graph import _RULE_KEYS, DelaySchedule, GraphSchedule, ScheduleError, augment, validate_b_connectivity
from .privacy import NoiseConfig

SWEEP_AXES = ("gamma", "epsilon", "tau_max", "seed", "T", "horizon")
EQUIVALENCE_HORIZON = 50  # rounds of the run and twin that ``verify_checks`` compares, at most
# what reading a malformed value or block of a config can raise
_MALFORMED = (AttributeError, LookupError, OverflowError, TypeError, ValueError)


# ---------------------------------------------------------------------------
# Config schema: one table, read by config_from_dict and written by
# config_to_dict


REQUIRED = object()


def _parser(what: str, ok, convert=lambda value: value):
    def parse(value):
        if not ok(value):
            raise TypeError(f"must be {what}, got {reprlib.repr(value)}")
        return convert(value)
    return parse


def _enum(choices):
    """Parser passing a string in ``choices``, read when it is called."""
    return _parser(f"one of {list(choices)}", lambda v: isinstance(v, str) and v in choices)


def _rows(width: int, value) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and len(row) == width and all(type(v) is int for v in row)
        for row in value)


# exact types, so that a bool is never taken for an integer
_integer = _parser("an integer", lambda v: type(v) is int)
_boolean = _parser("true or false", lambda v: type(v) is bool)
_string = _parser("a string", lambda v: type(v) is str)
_finite = lambda v: type(v) in (int, float) and math.isfinite(v)
_number = _parser("a finite number", _finite, float)
_object = _parser("an object", lambda v: isinstance(v, dict))
_edges = _parser("a list of [src, dst] integer pairs", lambda v: _rows(2, v))
_edge_sets = _parser("a list of edge lists", lambda v: isinstance(v, list) and all(
    _rows(2, edges) for edges in v))
_matrix = _parser("a list of rows of finite numbers", lambda v: isinstance(v, list) and all(
    isinstance(row, list) and all(map(_finite, row)) for row in v), lambda v: np.array(v, float))


def _entries(rows: list) -> dict:
    """Fixed-rule rows keyed by all but their last integer; a key listed twice is an error."""
    keys = [r[0] if len(r) == 2 else tuple(r[:2]) for r in rows]
    if twice := sorted(k for k, n in Counter(keys).items() if n > 1):
        raise ValueError(f"key {', '.join(map(str, twice))} listed more than once")
    return dict(zip(keys, (r[-1] for r in rows)))


def _rule(width: int) -> tuple:
    """A delay rule's block: fixed entries are ``width``-integer rows, keyed by all but the last."""
    entries = _parser(f"a list of rows of {width} integers", lambda v: _rows(width, v), _entries)
    return (("type", {"none": (), "fixed": (("entries", entries, REQUIRED),),
                      "uniform": (("low", _integer, 0), ("high", _integer, REQUIRED))},
             REQUIRED),)


_SCHEDULE = (("num_agents", _integer, REQUIRED), ("require_self_loops", _boolean, True))

# Each block is a tuple of rows (key, parser, default). A parser is a
# function, a nested block, or a selector: a dict from each value the key
# may take to the rows that value adds to the block. A default of REQUIRED
# makes a key required, a default of None lets it be absent or null (both
# read as None), and any other default is read in place of an absent key.
SCHEMA = (
    ("game", _enum(GAME_REGISTRY), REQUIRED),
    ("graph", (("type", {"static": _SCHEDULE + (("edges", _edges, REQUIRED),),
                         "periodic": _SCHEDULE + (("edge_sets", _edge_sets, REQUIRED),)},
                REQUIRED),
               ("b_window", _integer, 1),
               ("validate_connectivity", _boolean, False)), REQUIRED),
    ("delays", (("tau_max", _integer, REQUIRED),
                ("comm", _rule(3), {"type": "none"}),
                ("feedback", _rule(2), {"type": "none"}),
                ("seed", _integer, None)), {"tau_max": 0}),
    ("privacy", (("sensitivity", _enum(("manual", "analytic")), "manual"),
                 ("shared_draw", _boolean, True),
                 ("mode", {"epsilon": (("epsilon", _number, REQUIRED),),
                           "sigma": (("sigma", _number, REQUIRED),)}, REQUIRED),
                 ("delta", _number, None)), None),
    ("horizon", _integer, REQUIRED),
    ("gamma", _number, 1.0),
    ("init", _matrix, None),
    ("seed", _integer, 0),
    ("cold_start", _enum(("clamp", "zero")), "clamp"),
    ("run_id", _string, "run"),
    ("output", (("format", _enum(("tabular", "object-lines")), None),
                ("path", _string, None)), {}),
)


def _read(rows, raw: dict, errors: list, prefix: str = "") -> dict:
    """``raw`` parsed by ``rows``, each key on its own and every error itemized
    under ``prefix``. A key that fails is left out, so building from it raises
    KeyError; a selector that fails raises, as the rows it picks are unknown."""
    out, rows = {}, list(rows)
    for key, parse, default in rows:  # a selector extends ``rows`` as the loop runs
        value = raw.get(key, default)
        try:
            if value is REQUIRED:
                raise ValueError("missing")
            if value is None and default is None:
                out[key] = None
            elif isinstance(parse, dict):
                rows += parse[_enum(parse)(value)]
                out[key] = value
            elif isinstance(parse, tuple):
                out[key] = _read(parse, _object(value), errors, f"{prefix}{key}: ")
            else:
                out[key] = parse(value)
        except _MALFORMED as e:
            if isinstance(parse, dict):
                raise type(e)(f"{key}: {e}")
            errors.append(f"{prefix}{key}: {e}")
    unknown = raw.keys() - {key for key, _, _ in rows}
    if unknown:
        errors.append(f"{prefix}unknown keys {sorted(unknown)}")
    return out


def _write(rows, values: dict) -> dict:
    """The entries of ``values`` that ``rows`` list, in their order; a selector's
    key leads its block, and the rows its value picks stand in its place."""
    out = {}
    for key, parse, _ in (row for row in rows if row[0] in values):
        v = values[key]
        if isinstance(parse, dict):
            out = {key: v, **out, **_write(parse[v], values)}
        else:
            out[key] = v if v is None or not isinstance(parse, tuple) else _write(parse, v)
    return out


def _built(errors: list, prefix: str, make):
    """``make()``, or None once what it raised is itemized under ``prefix``."""
    try:
        return make()
    except KeyError:  # a key that failed to parse, itemized already
        return None
    except _MALFORMED as e:
        errors.append(prefix + str(e))


def _schedule(g: dict, n: int) -> GraphSchedule:
    """The parsed graph block's schedule, for a game of ``n`` agents."""
    # the agent count is compared first: building takes time and memory per agent
    if g["num_agents"] != n:
        raise ValueError(f"{g['num_agents']} agents, but the game has {n}")
    edges = g["edges" if g["type"] == "static" else "edge_sets"]
    return getattr(GraphSchedule, g["type"])(n, edges, g["require_self_loops"])


def config_from_dict(raw: dict, **overrides) -> RunConfig:
    """The config ``raw`` describes with ``overrides`` of its keys; ConfigError itemizes every bad key."""
    errors = []
    c = {**_read(SCHEMA, raw, errors), **overrides}
    g, d, p = c.get("graph", {}), c.get("delays", {}), c.get("privacy", {})
    graph = _built(errors, "graph: ", lambda: _schedule(g, GAME_REGISTRY[c["game"]]().num_agents))
    # each rule's keys by name, so that one that failed to parse raises KeyError
    delays = _built(errors, "delays: ", lambda: DelaySchedule(d["tau_max"], *(
        {k: d[r][k] for k in _RULE_KEYS[d[r]["type"]]} for r in ("comm", "feedback")), d["seed"]))
    noise = _built(errors, "privacy: ", lambda: NoiseConfig.off() if p is None else NoiseConfig(
        p["mode"], sensitivity_mode=p["sensitivity"], delta=p["delta"],
        shared_draw=p["shared_draw"], **{p["mode"]: p[p["mode"]]}))
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        game=c["game"], graph=graph, delays=delays, noise=noise, horizon=c["horizon"],
        gamma=c["gamma"], x0=c["init"], seed=c["seed"], b_window=g["b_window"],
        validate_connectivity=g["validate_connectivity"], cold_start=c["cold_start"],
        run_id=c["run_id"], output={k: v for k, v in c["output"].items() if v is not None})


def config_to_dict(cfg: RunConfig) -> dict:
    """``cfg`` as a config file's dict, which ``config_from_dict`` reads back
    to an equal config."""
    graph, delays, noise = cfg.graph, cfg.delays, cfg.noise
    sets = [sorted(map(list, es)) for es in graph.edge_sets]
    rule = lambda r: r if r["type"] != "fixed" else {**r, "entries": [
        [*np.atleast_1d(k).tolist(), v] for k, v in sorted(r["entries"].items())]}
    # fields named like their key are taken as they are; SCHEMA picks the
    # keys each block writes
    return _write(SCHEMA, {
        **vars(cfg), "game": cfg.game if isinstance(cfg.game, str) else cfg.game.name,
        "graph": {**vars(graph), "type": "static" if len(sets) == 1 else "periodic",
                  "edges": sets[0], "edge_sets": sets,
                  "b_window": cfg.b_window, "validate_connectivity": cfg.validate_connectivity},
        "delays": {**vars(delays), "comm": rule(delays.comm), "feedback": rule(delays.feedback)},
        "privacy": {**vars(noise), "sensitivity": noise.sensitivity_mode} if noise.enabled else None,
        "init": None if cfg.x0 is None else cfg.x0.tolist()})


def load_config(path, **overrides) -> RunConfig:
    """The config in the file ``path``, an empty one read as ``{}``, with ``overrides``."""
    import json  # here and in each writer: importing the cli need not load json

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8").strip() or "{}")
    except ValueError as e:  # what decoding UTF-8 or JSON raises
        raise ConfigError([f"config {path} is not UTF-8 JSON: {e}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"config root must be an object, got {reprlib.repr(raw)}"])
    return config_from_dict(raw, **overrides)


def write_config(cfg: RunConfig, path) -> None:
    import json

    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Scenario presets (the benchmark's six figure scenarios)


def benchmark_graph() -> GraphSchedule:
    """Five-agent unbalanced digraph: self-loops, directed ring, one chord,
    and an unreliable 2->4 link (0-based 1->3) absent at odd steps.
    """
    base = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
    return GraphSchedule.periodic(5, [base + [(1, 3)], base])


def preset(name: str) -> RunConfig:
    """The preset ``name``: its settings over the benchmark base, run id ``name``."""
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}; available: {sorted(PRESETS)}"])
    return RunConfig(game="nash-cournot", graph=benchmark_graph(), horizon=2000,
                     x0=np.array([[-1.0], [2.0], [2.0], [5.0], [1.0]]), seed=42,
                     run_id=name, **PRESETS[name][1]())


_private = lambda epsilon: NoiseConfig.fixed_epsilon(epsilon, delta=1.0)

# name -> (what ``dpgames presets`` says of it, its settings)
PRESETS = {
    "fig2-baseline": ("eps=0.2, sensitivity 1, gamma=1, no delays",
                      lambda: dict(noise=_private(0.2))),
    "fig3-high-lr": ("baseline with gamma=10", lambda: dict(gamma=10.0, noise=_private(0.2))),
    "fig4-tight-privacy": ("baseline with eps=0.1", lambda: dict(noise=_private(0.1))),
    "fig5-fixed-delay": ("tau(4<-2)=2 fixed, no privacy",
                         lambda: dict(delays=DelaySchedule.fixed(2, comm={(3, 1): 2}))),
    "fig6-random-delays": ("comm and feedback delays uniform on [0,10], no privacy",
                           lambda: dict(delays=DelaySchedule.uniform(10))),
    "fig7-random-delays-private": ("random delays plus eps=0.2", lambda: dict(
        delays=DelaySchedule.uniform(10), noise=_private(0.2))),
}


# ---------------------------------------------------------------------------
# Record emission


def _vec_columns(stem: str, m: int) -> list[str]:
    return [stem] if m == 1 else [f"{stem}_{k}" for k in range(m)]


def _running_average(loss: np.ndarray) -> np.ndarray:
    """Row 0 keeps the round-0 losses; row t >= 1 averages rounds 1..t,
    matching the benchmark figures' series."""
    from .metrics import average_loss

    if len(loss) == 1:
        return loss
    return np.concatenate([loss[:1], average_loss(loss[1:])])


def _record_table(result: RunResult) -> np.ndarray:
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
                     + [a.reshape(-1, 1) for a in scalars])


def _csv_field(text: str) -> str:
    """``text`` as one comma-separated field: quoted, with its quotes doubled,
    when it holds a comma, a double quote or a line break (RFC 4180)."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def write_records(result: RunResult, path, fmt: str) -> None:
    """Write the records file; raise NonFiniteStateError, before opening it,
    at the first cell that is not finite (a finite but huge b has an
    infinite b_norm). Both formats fill one line template per row, whose
    ``%r`` spells a finite float as ``json.dumps`` does."""
    if fmt not in ("tabular", "object-lines"):
        raise ConfigError([f"unknown output format {fmt!r}"])
    V, m = result.x.shape[1:]
    run_id, seed = result.config.run_id, int(result.config.seed)
    columns = (_vec_columns("x", m) + _vec_columns("x_hat", m) + _vec_columns("v", m)
               + ["b_norm", "loss", "avg_loss", "loss_true", "avg_loss_true"])
    with np.errstate(over="ignore"):
        table = _record_table(result)
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        t, i = divmod(int(bad[0, 0]), V)
        raise NonFiniteStateError(f"non-finite {columns[bad[0, 1]]} at round {t}, agent {i}")
    if fmt == "tabular":
        head = ",".join(["run_id", "seed", "t", "agent"] + columns) + "\n"
        fixed, cells = f"{_csv_field(str(run_id))},{seed}", ",%d,%d" + ",%r" * len(columns) + "\n"
    else:  # JSON's item spelling: ", " between items, ": " after keys
        import json

        vec = "[" + ", ".join(["%r"] * m) + "]"
        head, fixed = "", json.dumps({"run_id": run_id, "seed": seed})[:-1]  # no closing brace
        items = zip(["t", "agent", "x", "x_hat", "v"] + columns[3 * m:],
                    ["%d"] * 2 + [vec] * 3 + ["%r"] * 5)
        cells = "".join(f', "{k}": {f}' for k, f in items) + "}\n"
    line = fixed.replace("%", "%%") + cells
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for k, row in enumerate(table.tolist()):
            fh.write(line % (*divmod(k, V), *row))


def write_summary(result: RunResult, path) -> None:
    import json

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result.summary(), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def _resolve_config(args) -> RunConfig:
    if args.preset and args.config:
        raise ConfigError(["pass either --preset or --config, not both"])
    # both overrides in the one build, so that a bad pair is itemized together
    overrides = {k: v for k in ("seed", "horizon") if (v := getattr(args, k, None)) is not None}
    if args.config:  # a file is checked at the seed and horizon it runs with
        return load_config(args.config, **overrides)
    if not args.preset:
        raise ConfigError(["one of --preset or --config is required"])
    return replace(preset(args.preset), **overrides) if overrides else preset(args.preset)


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


def verify_checks(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    """The verification battery; every entry is (name, passed, detail).

    The per-round checks run once per edge set the horizon reaches, at the
    first round that has it, with that round's delays. Later rounds add
    nothing: ``augment`` only regroups a row's weights by delay, and
    ``DelaySchedule`` checked when it was built that every rule stays in
    [0, tau_max]. The run itself is checked by oracle-equivalence.
    """
    checks = []
    graph, delays = cfg.graph, cfg.delays.with_seed(cfg.seed)
    V, horizon = graph.num_agents, max(cfg.horizon, 1)
    first = {}  # edge set -> the first round that has it
    for t in range(min(horizon, len(graph.edge_sets))):
        first.setdefault(graph.edges_at(t), t)

    missing = [(i, t) for edges, t in first.items() for i in range(V) if (i, i) not in edges]
    checks.append(("self-loops", not missing,
                   "all agents have self-loops" if not missing
                   else f"missing self-loop, first at (agent, t) = {missing[0]}"))

    try:
        rep = validate_b_connectivity(graph, cfg.b_window, horizon)
        ok, detail = rep.ok, ("strongly connected on every window" if rep.ok
                              else f"first violating window {rep.first_violation}")
    except ScheduleError as e:  # a window longer than the run
        ok, detail = False, str(e)
    checks.append((f"connectivity(B={cfg.b_window})", ok, detail))

    bad_delay = None  # first round with a delay out of bounds
    worst_w = worst_aug = 0.0
    for t in first.values():
        W, D = graph.weights_at(t), delays.comm_matrix(t, V)
        feedback = delays.feedback_delays(t, V)
        if bad_delay is None and (D.min() < 0 or D.max() > delays.tau_max or np.any(np.diag(D) != 0)
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

    try:
        T = min(horizon, EQUIVALENCE_HORIZON)
        short = cfg if cfg.horizon == T else replace(cfg, horizon=T)  # built and resolved once
        rec = engine._run_pair(short)  # member 0: the arrival ring; member 1: the relay twin
        diff = max(float(np.abs(rec[k][:, 0] - rec[k][:, 1]).max()) for k in "bxv")
        # the two routes differ only in summation order, so agreement is
        # machine precision relative to the state magnitude
        scale = max(1.0, float(np.abs(rec["b"][:, 0]).max()), float(np.abs(rec["v"][:, 0]).max()))
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
    import hashlib  # here, not at the top: importing the package need not load it

    digest = hashlib.sha256(f"{master}:{axis}:{value!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _apply_axis(cfg: RunConfig, axis: str, value: float, **changes) -> RunConfig:
    """``cfg`` with ``axis`` at ``value`` over the fields ``changes`` names, in one build."""
    build = lambda **swept: replace(cfg, **{**changes, **swept})
    if axis == "gamma":
        return build(gamma=float(value))
    if axis in ("T", "horizon"):
        return build(horizon=int(value))
    if axis == "seed":
        return build(seed=int(value))
    if axis == "epsilon":
        noise = cfg.noise  # the member keeps the sensitivity mode, and a manual delta
        return build(noise=NoiseConfig.fixed_epsilon(
            float(value), delta=noise.delta if noise.enabled else 1.0,
            sensitivity_mode=noise.sensitivity_mode, shared_draw=noise.shared_draw))
    if axis == "tau_max":
        d, tau_max = cfg.delays, int(value)
        if "fixed" in (d.comm["type"], d.feedback["type"]):
            raise ConfigError(["cannot sweep tau_max over a fixed-entry delay schedule"])
        # each rule keeps its type; a uniform rule keeps its low and takes
        # the swept value as its high
        rules = [rule if rule["type"] == "none" else {**rule, "high": tau_max}
                 for rule in (d.comm, d.feedback)]
        return build(delays=DelaySchedule(tau_max, *rules, d.seed))
    raise ConfigError([f"axis {axis!r} is not sweepable; choose from {SWEEP_AXES}"])


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    axis = args.axis
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ConfigError(["--values must be a non-empty comma-separated list"])
    # every member is built, and so checked, before the first one runs
    members, errors = [], []
    for raw_value in values:
        try:
            value = float(raw_value) if axis not in ("seed",) else int(raw_value)
            if axis in ("T", "horizon", "tau_max") and not value.is_integer():
                raise ValueError(f"{axis} takes integer values")
            # a seed axis sets the seed itself, over the derived one
            run_id, seed = f"{cfg.run_id}-{axis}-{raw_value}", derive_seed(cfg.seed, axis, value)
            members.append((raw_value, _apply_axis(cfg, axis, value, seed=seed, run_id=run_id)))
        except _MALFORMED as e:  # a ConfigError (a ValueError) gives one line per error
            errors += [f"--values {raw_value!r}: {msg}" for msg in getattr(e, "errors", [e])]
    if errors:
        raise ConfigError(errors)
    rows = []
    for raw_value, member in members:
        result = engine.run(member)
        tail = result.summary()["stabilization"].values()
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
            fh.write(",".join(_csv_field(str(row[c])) for c in cols) + "\n")
    print(f"wrote {out} ({len(rows)} runs)")
    return 0


def cmd_presets(args) -> int:
    for name, (note, _) in PRESETS.items():
        print(f"{name}: {note}")
    return 0


def cmd_ne_oracle(args) -> int:
    errors = []
    if not 0 < args.tol < np.inf:  # also rejects NaN
        errors.append(f"--tol must be finite and positive, got {args.tol}")
    if args.time < 0:  # rounds start at 0, as a run's horizon does
        errors.append(f"--time must be a non-negative integer, got {args.time}")
    if errors:
        raise ConfigError(errors)
    from . import metrics

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


def build_parser():
    import argparse  # here, not at the top: importing the package need not load it

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
    except MemoryError as e:  # a config whose arrays cannot be allocated
        print(f"error: out of memory: {e or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
