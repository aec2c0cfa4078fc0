import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgames as dp
from dpgames import cli
from dpgames.cli import (ConfigError, config_from_dict, config_to_dict, derive_seed,
                         load_config, preset, write_config)
from dpgames.engine import NonFiniteStateError

from conftest import (HalvedGradients, count_checks_and_games, diverging_cournot,
                      dropping_first_message, halved_gradients_config, ring_graph, toy_2d_game)


def test_config_round_trip(tmp_path):
    for name in cli.PRESETS:
        cfg = preset(name)
        path = tmp_path / f"{name}.json"
        write_config(cfg, path)
        loaded = load_config(path)
        assert config_to_dict(loaded) == config_to_dict(cfg)


def test_schedule_file_form_follows_its_edge_sets():
    two = cli.benchmark_graph()  # a cycle of two edge sets
    cfg = replace(preset("fig2-baseline"), graph=two)
    d = config_to_dict(cfg)["graph"]
    assert d["type"] == "periodic" and d["edge_sets"] == [sorted(map(list, es)) for es in two.edge_sets]
    back = config_from_dict(config_to_dict(cfg)).graph
    assert back == two and [back.edges_at(t) for t in range(4)] == [two.edges_at(t) for t in range(4)]
    one = dp.GraphSchedule.periodic(5, [two.edge_sets[1]])
    d = config_to_dict(replace(cfg, graph=one))
    assert d["graph"]["type"] == "static" and config_from_dict(d).graph == one


@st.composite
def _delay_rules(draw, keys, tau_max):
    kind = draw(st.sampled_from(["none", "fixed", "uniform"]))
    if kind == "fixed":
        entries = draw(st.dictionaries(keys, st.integers(0, tau_max), max_size=4))
        return {"type": "fixed", "entries": entries}
    if kind == "uniform":
        high = draw(st.integers(0, tau_max))
        low = draw(st.one_of(st.none(), st.integers(0, high)))
        return {"type": "uniform", "high": high, **({} if low is None else {"low": low})}
    return {"type": "none"}


@st.composite
def _run_configs(draw):
    V = 5  # the registered game's agent count
    edge = st.tuples(st.integers(0, V - 1), st.integers(0, V - 1))
    # every agent gets an in-edge from a drawn source, so that no edge set
    # leaves an agent without in-neighbors
    in_edges = st.lists(st.integers(0, V - 1), min_size=V, max_size=V).map(
        lambda sources: [(src, dst) for dst, src in enumerate(sources)])
    sets = draw(st.lists(st.builds(list.__add__, st.lists(edge, max_size=8), in_edges),
                         min_size=1, max_size=3))
    graph = (dp.GraphSchedule.static(V, sets[0], draw(st.booleans())) if draw(st.booleans())
             else dp.GraphSchedule.periodic(V, sets, draw(st.booleans())))
    tau_max = draw(st.integers(0, 4))
    pairs = st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)).filter(lambda p: p[0] != p[1])
    delays = dp.DelaySchedule(tau_max, draw(_delay_rules(pairs, tau_max)),
                              draw(_delay_rules(st.integers(0, V - 1), tau_max)),
                              draw(st.one_of(st.none(), st.integers(0, 2 ** 32))))
    scale = st.floats(0.01, 100.0)
    mode, sensitivity = draw(st.sampled_from(["off", "epsilon", "sigma"])), draw(
        st.sampled_from(["manual", "analytic"]))
    noise = dp.NoiseConfig() if mode == "off" else dp.NoiseConfig(
        mode, **{mode: draw(scale)}, sensitivity_mode=sensitivity,
        delta=draw(scale if sensitivity == "manual" else st.one_of(st.none(), scale)),
        shared_draw=draw(st.booleans()))
    output = draw(st.fixed_dictionaries({}, optional={
        "format": st.sampled_from(["tabular", "object-lines"]), "path": st.text(max_size=8)}))
    horizon, gamma = draw(st.integers(0, 50)), draw(scale)
    x0 = draw(st.sampled_from([None, np.array([[-1.0], [2.0], [2.0], [5.0], [1.0]])]))
    seed, b_window = draw(st.integers(0, 2 ** 32)), draw(st.integers(1, 4))
    # a schedule that fails the connectivity check it asks for is a config error
    connected = horizon < b_window or dp.validate_b_connectivity(graph, b_window, horizon).ok
    return dp.RunConfig(
        game="nash-cournot", graph=graph, delays=delays, noise=noise, horizon=horizon,
        gamma=gamma, x0=x0, seed=seed, b_window=b_window,
        validate_connectivity=draw(st.booleans()) and connected,
        cold_start=draw(st.sampled_from(["clamp", "zero"])),
        run_id=draw(st.text(max_size=8)), output=output)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_run_configs())
def test_every_config_round_trips_through_its_dict_form(cfg):
    back = config_from_dict(config_to_dict(cfg))
    assert replace(back, x0=None) == replace(cfg, x0=None)  # x0 arrays compare below
    assert (back.x0 is None) == (cfg.x0 is None)
    assert cfg.x0 is None or np.array_equal(back.x0, cfg.x0)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_edge_set_without_in_neighbors_is_a_config_error(command, tmp_path, capsys):
    d = config_to_dict(preset("fig2-baseline"))
    edge_sets = d["graph"]["edge_sets"]
    d["graph"] = {**d["graph"], "require_self_loops": False,
                  "edge_sets": [edge_sets[0], [e for e in edge_sets[1] if e[1] != 0]]}
    p, out = tmp_path / "c.json", tmp_path / "r.csv"
    p.write_text(json.dumps(d))
    extra = ["--out", str(out)] if command == "run" else []
    assert cli.main([command, "--config", str(p), *extra]) == 2
    assert capsys.readouterr().err == (
        "config error: graph: edge set 1 leaves agent(s) [0] with no in-neighbors"
        " (self-loop requirement violated)\n")
    assert list(tmp_path.iterdir()) == [p]


def test_readme_schema_example_has_the_schema_keys_in_every_block():
    """The README's example config has, in every block, exactly the keys
    that the schema lists for it, its selectors' choices included."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration schema", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])

    def check(rows, block, where):
        rows = list(rows)
        for key, parse, _ in rows:  # a selector's choice adds its rows
            if isinstance(parse, dict):
                rows += parse[block[key]]
            elif isinstance(parse, tuple):
                check(parse, block[key], f"{where}{key}.")
        assert set(block) == {key for key, _, _ in rows}, where or "top level"

    check(cli.SCHEMA, example, "")


def test_fig2_preset_matches_published_constants():
    cfg = preset("fig2-baseline")
    assert cfg.gamma == 1.0
    assert cfg.horizon == 2000
    assert cfg.noise.mode == "epsilon" and cfg.noise.epsilon == 0.2
    assert cfg.noise.delta == 1.0 and cfg.noise.shared_draw
    assert cfg.delays.tau_max == 0
    assert cfg.x0.ravel().tolist() == [-1.0, 2.0, 2.0, 5.0, 1.0]
    game = cfg.resolved_game()
    assert game.box_lo.ravel().tolist() == [-5.0, 0.0, -4.0, 3.0, -1.0]
    assert game.box_hi.ravel().tolist() == [5.0, 10.0, 8.0, 12.0, 6.0]


def test_other_presets_direction_constants():
    assert preset("fig3-high-lr").gamma == 10.0
    assert preset("fig4-tight-privacy").noise.epsilon == 0.1
    fig5 = preset("fig5-fixed-delay")
    assert not fig5.noise.enabled
    assert fig5.delays.comm_delay(3, 1, 0) == 2
    assert fig5.delays.comm_delay(3, 1, 7) == 2
    assert fig5.delays.feedback_delay(2, 0) == 0
    fig6 = preset("fig6-random-delays")
    assert fig6.delays.tau_max == 10 and not fig6.noise.enabled
    assert preset("fig7-random-delays-private").noise.epsilon == 0.2


def test_empty_config_file_lists_required_keys(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    msg = str(exc.value)
    assert "game" in msg and "graph" in msg and "horizon" in msg


def test_unknown_and_missing_keys_are_itemized():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"game": "nash-cournot", "frobnicate": 1})
    assert "frobnicate" in str(exc.value) and "missing" in str(exc.value)


def test_delay_exceeding_bound_is_a_config_error():
    d = config_to_dict(preset("fig2-baseline"))
    d["delays"] = {"tau_max": 10, "comm": {"type": "fixed", "entries": [[0, 1, 11]]},
                   "feedback": {"type": "none"}, "seed": None}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(d)
    assert "11" in str(exc.value)


def test_init_outside_box_is_a_config_error():
    d = config_to_dict(preset("fig2-baseline"))
    d["init"] = [[-1.0], [2.0], [2.0], [5.0], [7.0]]  # agent 4 box is [-1, 6]
    with pytest.raises(ConfigError):
        config_from_dict(d)


def test_cmd_run_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        rc = cli.main(["run", "--preset", "fig2-baseline", "--horizon", "300",
                       "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.summary.json").exists()


def test_tabular_header_names_each_column_once(tmp_path):
    out = tmp_path / "r.csv"
    cli.main(["run", "--preset", "fig5-fixed-delay", "--horizon", "20",
              "--out", str(out)])
    header = out.read_text().splitlines()[0].split(",")
    assert len(header) == len(set(header))
    for col in ("t", "agent", "x", "x_hat", "v", "b_norm", "loss", "avg_loss",
                "loss_true", "avg_loss_true", "run_id", "seed"):
        assert col in header
    # one record per (t, agent)
    assert len(out.read_text().splitlines()) == 1 + 21 * 5


def test_object_lines_format(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = cli.main(["run", "--preset", "fig2-baseline", "--horizon", "10",
                   "--out", str(out), "--format", "object-lines"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11 * 5
    rec = json.loads(lines[0])
    assert rec["t"] == 0 and rec["agent"] == 0 and rec["x"] == [-1.0]


_SCALARS = ["b_norm", "loss", "avg_loss", "loss_true", "avg_loss_true"]


def _per_row_records(result, fmt) -> str:
    """The records as a per-row writer spells them: one ``json.dumps`` of a
    dict per row, or one ``csv.writer`` row, which quotes like RFC 4180."""
    V, m = result.x.shape[1:]
    run_id, seed = result.config.run_id, int(result.config.seed)
    out = io.StringIO()
    rows = cli._record_table(result).tolist()
    if fmt == "tabular":
        vec = lambda stem: [stem] if m == 1 else [f"{stem}_{k}" for k in range(m)]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["run_id", "seed", "t", "agent"] + vec("x") + vec("x_hat") + vec("v")
                        + _SCALARS)
        for k, row in enumerate(rows):
            writer.writerow([run_id, seed, *divmod(k, V), *row])
    else:
        for k, row in enumerate(rows):
            t, i = divmod(k, V)
            out.write(json.dumps({
                "run_id": run_id, "seed": seed, "t": t, "agent": i,
                "x": row[:m], "x_hat": row[m:2 * m], "v": row[2 * m:3 * m],
                **dict(zip(_SCALARS, row[3 * m:]))}) + "\n")
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["tabular", "object-lines"])
@pytest.mark.parametrize("run_id", ["a%db", 'q"uote', "\u00e9", "a,b"])
def test_records_match_a_per_row_writer(fmt, run_id, tmp_path):
    cfg = dp.RunConfig(game=toy_2d_game(), graph=ring_graph(3), delays=dp.DelaySchedule.uniform(2),
                       noise=dp.NoiseConfig.fixed_epsilon(0.5, delta=1.0), horizon=30,
                       x0=np.zeros((3, 2)), seed=3, run_id=run_id)
    result = dp.run(cfg)
    out = tmp_path / "r.out"
    cli.write_records(result, out, fmt)
    assert out.read_bytes() == _per_row_records(result, fmt).encode()


def test_run_id_with_a_comma_reads_back_as_one_field(tmp_path):
    out = tmp_path / "r.csv"
    cli.write_records(dp.run(replace(preset("fig5-fixed-delay"), horizon=2, run_id="a,b")),
                      out, "tabular")
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3 * 5
    assert {len(row) for row in rows} == {12} and {row[0] for row in rows[1:]} == {"a,b"}


def test_sweep_table_quotes_a_run_id_with_a_comma_or_quote(tmp_path):
    config, out = tmp_path / "c.json", tmp_path / "sweep.csv"
    config.write_text(json.dumps({**config_to_dict(preset("fig5-fixed-delay")), "horizon": 3,
                                  "run_id": 'a,"b'}))
    assert cli.main(["sweep", "--config", str(config), "--axis", "gamma",
                     "--values", "1,2", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [row[0] for row in rows] == ['a,"b-gamma-1', 'a,"b-gamma-2']
    assert {len(row) for row in rows} == {len(header)}


def test_numpy_integer_seed_writes_the_files_of_its_int(tmp_path):
    written = []
    for seed in (3, np.int64(3)):
        result = dp.run(replace(preset("fig5-fixed-delay"), horizon=2, seed=seed))
        out = tmp_path / f"{type(seed).__name__}"
        cli.write_records(result, f"{out}.csv", "tabular")
        cli.write_records(result, f"{out}.jsonl", "object-lines")
        cli.write_summary(result, f"{out}.json")
        summary = json.loads(Path(f"{out}.json").read_text())
        del summary["wall_time_s"]
        written.append((Path(f"{out}.csv").read_bytes(), Path(f"{out}.jsonl").read_bytes(),
                        summary))
    assert written[0] == written[1] and written[0][2]["seed"] == 3


def test_summary_contents(tmp_path):
    out = tmp_path / "r.csv"
    cli.main(["run", "--preset", "fig2-baseline", "--horizon", "150",
              "--out", str(out)])
    summary = json.loads((tmp_path / "r.csv.summary.json").read_text())
    assert summary["epsilon_hat"] == pytest.approx(30.0)
    assert summary["empirical_theta"] >= 1.0
    assert summary["ledger"] == [{"rounds": 150, "delta": 1.0, "sigma": 5.0, "epsilon": 0.2}]
    assert summary["messages_enqueued"] == summary["messages_delivered"]
    assert set(summary["stabilization"]) == {"0", "1", "2", "3", "4"}


@pytest.mark.parametrize("fmt", ["tabular", "object-lines"])
def test_a_horizon_0_run_writes_round_0_alone(fmt, tmp_path):
    out = tmp_path / "r.out"
    assert cli.main(["run", "--preset", "fig5-fixed-delay", "--horizon", "0",
                     "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    rows = (list(csv.DictReader(io.StringIO(text))) if fmt == "tabular"
            else [json.loads(line) for line in text.splitlines()])
    assert [(int(r["t"]), int(r["agent"])) for r in rows] == [(0, i) for i in range(5)]
    # a one-row series is its own running average
    assert all(r["avg_loss"] == r["loss"] and r["avg_loss_true"] == r["loss_true"] for r in rows)
    summary = json.loads(Path(f"{out}.summary.json").read_text())
    assert summary["horizon"] == 0 and summary["stabilization"] == {} and summary["ledger"] == []
    # no round ran, so the y floor is Y(0) = I's
    assert summary["empirical_y_floor"] == 1.0 and summary["empirical_theta"] == 1.0


def test_unwritable_out_path_fails_nonzero(tmp_path):
    rc = cli.main(["run", "--preset", "fig2-baseline", "--horizon", "5",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
    assert rc == 1


def test_cmd_verify_benchmark_passes(capsys):
    rc = cli.main(["verify", "--preset", "fig5-fixed-delay", "--horizon", "120"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    for check in ("self-loops", "connectivity", "delay-bounds", "row-stochastic",
                  "oracle-equivalence"):
        assert check in out


def test_verify_fails_when_the_arrival_ring_drops_a_message(monkeypatch):
    # verify steps both routes in one pair; a ring route that drops the
    # first message of every round must still fail the oracle check
    from dpgames.engine import World
    cfg = preset("fig7-random-delays-private")
    assert dict((name, ok) for name, ok, _ in cli.verify_checks(cfg))["oracle-equivalence"]
    monkeypatch.setattr(World, "_arrivals", dropping_first_message(World._arrivals))
    checks = {name: (ok, detail) for name, ok, detail in cli.verify_checks(cfg)}
    ok, detail = checks["oracle-equivalence"]
    assert not ok and detail.startswith("max |run - augmented reference| = ")
    assert all(ok for name, (ok, _) in checks.items() if name != "oracle-equivalence")


def test_verify_draws_each_rounds_noise_once_for_both_routes(monkeypatch):
    # the lockstep pair shares one noise draw a round: 50 rounds, 50 calls
    from dpgames import engine, privacy
    calls = []
    monkeypatch.setattr(engine, "substream", lambda *key: calls.append(key) or privacy.substream(*key))
    cfg = preset("fig7-random-delays-private")
    assert cfg.horizon > cli.EQUIVALENCE_HORIZON == 50 and cfg.noise.shared_draw
    cli.verify_checks(cfg)
    assert sorted(t for _, purpose, t in calls if purpose == privacy.STREAM_NOISE) == list(range(50))
    assert len(calls) == 50


@pytest.mark.parametrize("name, tau_max, diff, scale", [
    ("fig2-baseline", 0, "5.82e-11", "1.7e+05"),
    ("fig3-high-lr", 0, "5.82e-11", "1.7e+05"),
    ("fig4-tight-privacy", 0, "5.82e-11", "1.6e+05"),
    ("fig5-fixed-delay", 2, "2.91e-11", "1.6e+05"),
    ("fig6-random-delays", 10, "2.18e-11", "1.6e+05"),
    ("fig7-random-delays-private", 10, "1.46e-11", "1.6e+05"),
])
def test_verify_lines_of_every_preset_are_pinned(name, tau_max, diff, scale):
    assert cli.verify_checks(preset(name)) == [
        ("self-loops", True, "all agents have self-loops"),
        ("connectivity(B=1)", True, "strongly connected on every window"),
        ("delay-bounds", True, f"delays within [0, {tau_max}], tau_ii = 0"),
        ("row-stochastic", True, "max row-sum error 0.00e+00"),
        ("augmented-row-stochastic", True, "max row-sum error 0.00e+00"),
        ("oracle-equivalence", True,
         f"max |run - augmented reference| = {diff} (state scale {scale}) over T=50"),
    ]


def test_verify_certifies_the_configs_own_game(monkeypatch):
    # a GameSpec subclass overriding the row-form gradients: verify steps that
    # game, once a round, and a ring route that drops messages still fails
    from dpgames.engine import World
    cfg, halved, times = halved_gradients_config(), HalvedGradients.gradients, []
    monkeypatch.setattr(HalvedGradients, "gradients",
                        lambda self, t, x, p: times.append(t) or halved(self, t, x, p))
    assert all(ok for _, ok, _ in cli.verify_checks(cfg))
    assert times == list(range(cfg.horizon))
    monkeypatch.setattr(World, "_arrivals", dropping_first_message(World._arrivals))
    checks = {name: ok for name, ok, _ in cli.verify_checks(cfg)}
    assert not checks.pop("oracle-equivalence") and all(checks.values())


def test_cmd_verify_flags_missing_self_loop(tmp_path, capsys):
    d = config_to_dict(preset("fig2-baseline"))
    d["graph"] = {"type": "static", "num_agents": 5, "require_self_loops": False,
                  "edges": [[j, i] for i in range(5) for j in range(5) if i != j]}
    d["init"] = None
    p = tmp_path / "c.json"
    p.write_text(json.dumps(d))
    rc = cli.main(["verify", "--config", str(p), "--horizon", "40"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL self-loops" in out


def test_cmd_verify_fails_a_window_longer_than_the_run_and_runs_every_other_check(tmp_path, capsys):
    d = config_to_dict(preset("fig5-fixed-delay"))
    d["horizon"], d["graph"]["b_window"] = 2, 3
    p = tmp_path / "c.json"
    p.write_text(json.dumps(d))
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(p)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS self-loops", "FAIL connectivity(B=3)", "PASS delay-bounds", "PASS row-stochastic",
        "PASS augmented-row-stochastic", "PASS oracle-equivalence"]
    assert lines[1] == "FAIL connectivity(B=3): horizon 2 shorter than window 3"


def test_cmd_verify_reports_first_violating_window(tmp_path, capsys):
    # alternating one-way links need B=2; declare B=1
    d = {
        "game": "nash-cournot", "horizon": 40, "seed": 1,
        "graph": {"type": "periodic", "num_agents": 5, "b_window": 1,
                  "edge_sets": [
                      [[i, i] for i in range(5)] + [[0, 1], [1, 2], [2, 3], [3, 4]],
                      [[i, i] for i in range(5)] + [[4, 0]]]},
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(d))
    rc = cli.main(["verify", "--config", str(p)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL connectivity(B=1)" in out and "(0, 0)" in out
    # the union over B=2 windows is fine
    sched = config_from_dict(d).graph
    assert dp.validate_b_connectivity(sched, 2, 40).ok


def _recurring_violation(kind):
    """Seven agents on a two-phase schedule under fixed delays. The odd
    phase either drops agent 2's self-loop or cuts the ring edge 6 -> 0;
    its agent 6 has in-degree 7, whose weights sum to 1 - 2.2e-16, so the
    row-sum details show whether the odd phase was checked.
    """
    V = 7
    ring = [(i, (i + 1) % V) for i in range(V)]
    loops = [(i, i) for i in range(V)]
    into = lambda dst, srcs: [(j, dst) for j in srcs]
    even = loops + ring + into(5, range(5))
    odd = ([e for e in even if e != (2, 2)] if kind == "self-loop"
           else loops + ring[:-1]) + into(6, range(6))
    return dp.RunConfig(
        game=dp.linear_demand_game([-20.0 - 5.0 * i for i in range(V)], [-5.0] * V, [5.0] * V),
        graph=dp.GraphSchedule.periodic(V, [even, odd], require_self_loops=False),
        delays=dp.DelaySchedule.fixed(2, comm={(2, 1): 2, (5, 4): 1}, feedback={2: 1}),
        horizon=40, seed=42, b_window=1)


_ROUND_CHECKS = [("delay-bounds", True, "delays within [0, 2], tau_ii = 0"),
                 ("row-stochastic", True, "max row-sum error 2.22e-16"),
                 ("augmented-row-stochastic", True, "max row-sum error 1.11e-16")]


@pytest.mark.parametrize("kind, expected", [
    ("self-loop", [("self-loops", False, "missing self-loop, first at (agent, t) = (2, 1)"),
                   ("connectivity(B=1)", True, "strongly connected on every window"),
                   *_ROUND_CHECKS,
                   ("oracle-equivalence", False,
                    "run failed: y_ii = 0.000e+00 at t=2; self-loop structure violated")]),
    ("disconnected", [("self-loops", True, "all agents have self-loops"),
                      ("connectivity(B=1)", False, "first violating window (1, 1)"),
                      *_ROUND_CHECKS,
                      ("oracle-equivalence", True, "max |run - augmented reference| = 2.73e-12"
                       " (state scale 3.8e+03) over T=40")]),
])
def test_verify_entries_when_a_violating_phase_recurs(kind, expected):
    # the entries a round-by-round check of every window and round gives
    assert cli.verify_checks(_recurring_violation(kind)) == expected


def test_verify_finds_a_missing_self_loop_late_in_a_long_cycle():
    # edge set 280 of 300 drops agent 2's self-loop; the horizon passes it once
    ring = [(i, (i + 1) % 5) for i in range(5)] + [(i, i) for i in range(5)]
    sets = [[e for e in ring if e != (2, 2)] if k == 280 else ring for k in range(300)]
    cfg = dp.RunConfig(game="nash-cournot", horizon=400,
                       graph=dp.GraphSchedule.periodic(5, sets, require_self_loops=False))
    assert cli.verify_checks(cfg)[0] == (
        "self-loops", False, "missing self-loop, first at (agent, t) = (2, 280)")


def test_sweep_epsilon_axis(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--preset", "fig2-baseline", "--horizon", "120",
                   "--axis", "epsilon", "--values", "0.1,0.2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    eps_col = header.index("epsilon_hat")
    eps_hats = [float(l.split(",")[eps_col]) for l in lines[1:]]
    assert eps_hats == pytest.approx([12.0, 24.0])  # T * eps


@pytest.mark.parametrize("mode", ["analytic", "manual"])
def test_sweep_epsilon_member_keeps_the_sensitivity_mode(mode):
    base = preset("fig7-random-delays-private")
    noise = replace(base.noise, sensitivity_mode=mode, delta=2.5 if mode == "manual" else None)
    cfg = replace(base, horizon=30, noise=noise)
    member = cli._apply_axis(cfg, "epsilon", 0.5)
    assert member.noise.sensitivity_mode == mode and member.noise.epsilon == 0.5
    game = cfg.resolved_game()
    floor = dp.eigenvector_floor(cfg.graph, cfg.horizon)
    expected = dp.sensitivity_bound(game.L, 1.0 / floor, game.dim) if mode == "analytic" else 2.5
    ledger = dp.run(member).ledger
    assert len(ledger.records) == 30
    assert {delta for _, delta, _, _ in ledger.records} == {expected}


def test_sweep_seed_axis_gives_distinct_streams(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--preset", "fig2-baseline", "--horizon", "150",
                   "--axis", "seed", "--values", "1,2,3,4,5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    header = lines[0].split(",")
    seed_col = header.index("seed")
    assert [l.split(",")[seed_col] for l in lines[1:]] == ["1", "2", "3", "4", "5"]
    # the noise streams really differ: noise-driven tail dispersion varies
    disp_col = header.index("tail_rel_std_max")
    dispersions = [l.split(",")[disp_col] for l in lines[1:]]
    assert len(set(dispersions)) == 5


def test_sweep_horizon_axis(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--preset", "fig5-fixed-delay", "--axis", "T",
                   "--values", "50,100", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    h_col = header.index("horizon")
    assert [l.split(",")[h_col] for l in lines[1:]] == ["50", "100"]


def _no_comm_uniform_feedback_config(tmp_path):
    # no communication delays, feedback delays uniform on [1, 3]
    d = config_to_dict(preset("fig5-fixed-delay"))
    d["delays"] = {"tau_max": 3, "comm": {"type": "none"},
                   "feedback": {"type": "uniform", "low": 1, "high": 3}, "seed": None}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(d))
    return p


def test_sweep_tau_max_keeps_rule_types_and_lows(tmp_path):
    cfg = config_from_dict(json.loads(_no_comm_uniform_feedback_config(tmp_path).read_text()))
    member = cli._apply_axis(cfg, "tau_max", 5)
    assert member.delays.tau_max == 5
    assert member.delays.comm == {"type": "none"}
    assert member.delays.feedback == {"type": "uniform", "low": 1, "high": 5}
    assert member.delays.seed == cfg.delays.seed
    delays = member.delays.with_seed(7)
    D = delays.comm_matrix(7, 5)
    tau = np.stack([delays.feedback_delays(t, 5) for t in range(50)])
    assert not D.any() and tau.min() >= 1 and tau.max() <= 5


def test_sweep_tau_max_below_a_uniform_low_is_a_config_error(tmp_path, capsys):
    p = _no_comm_uniform_feedback_config(tmp_path)
    rc = cli.main(["sweep", "--config", str(p), "--horizon", "20", "--axis", "tau_max",
                   "--values", "0,4", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--values '0'" in err and "feedback uniform low 1" in err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_rejects_unknown_axis():
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--preset", "fig2-baseline", "--axis", "boxes",
                  "--values", "1,2"])


def test_derived_sub_seeds_are_stable_and_distinct():
    a = derive_seed(42, "epsilon", 0.1)
    assert a == derive_seed(42, "epsilon", 0.1)
    assert a != derive_seed(42, "epsilon", 0.2)
    assert a != derive_seed(43, "epsilon", 0.1)
    assert 0 <= a < 2 ** 63


def test_presets_command_lists_all(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in cli.PRESETS:
        assert name in out


def test_ne_oracle_command(capsys):
    assert cli.main(["ne-oracle", "--preset", "fig2-baseline", "--time", "0"]) == 0
    out = capsys.readouterr().out
    assert "5.0, 10.0, 8.0, 12.0, 6.0" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_ne_oracle_rejects_bad_tolerance(tol, capsys):
    # unchecked, nan runs until the stall detector fires and inf returns
    # an unconverged point with exit 0
    assert cli.main(["ne-oracle", "--preset", "fig2-baseline", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "--tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args, options", [
    (["--time", "-3"], ["--time"]),
    (["--time=-1", "--tol=0"], ["--tol", "--time"]),  # each bad option on its own line
])
def test_ne_oracle_rejects_a_negative_round(args, options, capsys, monkeypatch):
    solved = []
    monkeypatch.setattr("dpgames.metrics.ne_oracle", lambda *a, **kw: solved.append(a))
    assert cli.main(["ne-oracle", "--preset", "fig2-baseline", *args]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == len(options) and all(
        line.startswith("config error") and option in line for line, option in zip(lines, options))
    assert captured.out == "" and solved == []


@pytest.mark.parametrize("output, expected", [
    (5, "output must be a dict, got 5"),
    ([("format", "tabular")], "output must be a dict"),
    ({"format": "xml"}, "output format must be 'tabular' or 'object-lines', got 'xml'"),
    ({"format": None}, "output format"),
    ({"path": 5}, "output path must be a string, got 5"),
    ({"path": "r.csv", "fromat": "tabular"}, "output has unknown keys ['fromat']"),
])
def test_run_config_validate_itemizes_a_bad_output(output, expected):
    # the output block a config file would be rejected for
    with pytest.raises(ConfigError) as e:
        replace(preset("fig5-fixed-delay"), horizon=3, output=output)
    errors = e.value.errors
    assert len(errors) == 1 and expected in errors[0]


def test_the_cli_raises_the_engine_config_error():
    assert cli.ConfigError is dp.engine.ConfigError


@pytest.mark.parametrize("command, checks, games", [
    (["run", "--horizon", "5"], 2, 3),
    (["sweep", "--horizon", "5", "--axis", "gamma", "--values", "1,2,3"], 8, 9)])
def test_a_command_checks_each_config_once_when_it_builds_it(command, checks, games, tmp_path,
                                                            monkeypatch):
    # loading builds the game for its agent count, then the config; each override and
    # sweep member builds one more config, and no run checks or builds again
    write_config(preset("fig5-fixed-delay"), tmp_path / "f.json")
    monkeypatch.chdir(tmp_path)
    calls = count_checks_and_games(monkeypatch)
    assert cli.main([command[0], "--config", "f.json", *command[1:]]) == 0
    assert (calls.count("validate"), calls.count("game")) == (checks, games)


def test_config_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    assert cli.main(["run", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


def _fig5_file(tmp_path, graph=None, root=None) -> str:
    """A fig5 config file, its graph block or its whole root replaced."""
    d = config_to_dict(preset("fig5-fixed-delay"))
    if graph is not None:
        d["graph"] = graph
    p = tmp_path / "c.json"
    p.write_text(json.dumps(d if root is None else root))
    return str(p)


@pytest.mark.parametrize("argv, message", [
    (lambda p: ["run", "--config", _fig5_file(p, graph={"type": "grid"})],
     "graph: type: must be one of ['static', 'periodic'], got 'grid'"),
    (lambda p: ["run", "--config", _fig5_file(p, root=[1])], "config root must be an object, got [1]"),
    (lambda p: ["run", "--preset", "fig9"], "unknown preset 'fig9'; available: ["),
    (lambda p: ["run", "--preset", "fig5-fixed-delay", "--config", _fig5_file(p)],
     "pass either --preset or --config, not both"),
    (lambda p: ["run"], "one of --preset or --config is required"),
    (lambda p: ["sweep", "--preset", "fig5-fixed-delay", "--axis", "tau_max", "--values", "3"],
     "--values '3': cannot sweep tau_max over a fixed-entry delay schedule"),
    (lambda p: ["sweep", "--preset", "fig5-fixed-delay", "--axis", "gamma", "--values", ","],
     "--values must be a non-empty comma-separated list"),
], ids=["unknown-selector", "root-not-object", "unknown-preset", "preset-and-config",
        "no-config", "sweep-fixed-tau-max", "empty-values"])
def test_each_rejected_invocation_names_its_fault(argv, message, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli.main([*argv(tmp_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}") and captured.out == ""
    assert not out.exists()


def test_write_records_rejects_an_unknown_format(tmp_path):
    result = dp.run(replace(preset("fig5-fixed-delay"), horizon=1))
    with pytest.raises(ConfigError, match=r"^unknown output format 'xml'$"):
        cli.write_records(result, tmp_path / "r", "xml")
    assert not (tmp_path / "r").exists()


def test_importing_the_cli_loads_neither_argparse_nor_hashlib():
    # each is imported where it is used, so the library's import time pays for neither
    code = ("import sys; import dpgames.cli as cli; "
            "print(sorted({'argparse', 'hashlib'} & set(sys.modules))); "
            "print(cli.main(['presets']))")
    src = str(Path(dp.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    lines = done.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "0"
    assert lines[1:-1] == [f"{name}: {note}" for name, (note, _) in cli.PRESETS.items()]


def test_importing_the_library_loads_neither_json_nor_metrics():
    # metrics loads on first use of one of its names; json where a file is read or written
    code = ("import sys; import dpgames as dp, dpgames.engine, dpgames.cli; "
            "print(sorted({'json', 'dpgames.metrics'} & set(sys.modules))); "
            "print(dp.ne_oracle is sys.modules['dpgames.metrics'].ne_oracle); "
            "from dpgames import *; print(all(name in globals() for name in dp.__all__))")
    src = str(Path(dp.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines() == ["[]", "True", "True"]


_PRIVATE = {"mode": "epsilon", "epsilon": 0.2, "sensitivity": "manual", "delta": 1.0}
_GRAPH = config_to_dict(preset("fig2-baseline"))["graph"]


@pytest.mark.parametrize("key, value", [
    ("privacy", {**_PRIVATE, "epsilon": float("nan")}),
    ("privacy", {**_PRIVATE, "delta": float("inf")}),
    ("privacy", {"mode": "sigma", "sigma": float("inf"), "delta": 1.0}),
    ("privacy", {**_PRIVATE, "epsilon": "0.2"}),
    ("gamma", float("nan")),
    ("gamma", float("inf")),
    ("horizon", None),
    ("horizon", float("inf")),
    ("seed", "abc"),
    ("graph", [1]),
    ("delays", {"tau_max": 2, "comm": [1]}),
    ("game", ["nash-cournot"]),
    ("init", [[float("nan")], [2.0], [2.0], [5.0], [1.0]]),
    ("init", {"a": 1}),
    ("output", 5),
    ("seed", -1),
    ("--seed", -1),
    ("--horizon", -5),
    # the agent count is checked before the graph is built: building this
    # one would add 10**30 self-loops
    ("graph", {**_GRAPH, "num_agents": 10 ** 30}),
    # fixed delay entries a 5-agent run would never read
    ("delays", {"tau_max": 2, "comm": {"type": "fixed", "entries": [[7, 1, 2]]}}),
    ("delays", {"tau_max": 2, "feedback": {"type": "fixed", "entries": [[9, 1]]}}),
    ("delays", {"tau_max": 2, "comm": {"type": "fixed", "entries": [[2, 2, 1]]}}),
    # sweep members are validated like the config they come from
    ("sweep", ["--axis", "seed", "--values", "-1"]),
    ("sweep", ["--axis", "gamma", "--values", "nan"]),
    ("sweep", ["--axis", "T", "--values", "2.7"]),
    # integer fields take JSON integers only, and boolean fields true or false
    ("horizon", 3.7),
    ("horizon", "3"),
    ("seed", 1.9),
    ("seed", True),
    ("delays", {"tau_max": 10.9}),
    ("delays", {"tau_max": 2, "comm": {"type": "uniform", "low": 0, "high": 1.5}}),
    ("delays", {"tau_max": 2, "comm": {"type": "fixed", "entries": [[3, 1, 1.5]]}}),
    ("delays", {"tau_max": 2, "seed": 1.5}),
    ("graph", {**_GRAPH, "b_window": 1.5}),
    ("graph", {**_GRAPH, "num_agents": 5.0}),
    ("graph", {**_GRAPH, "validate_connectivity": "false"}),
    ("graph", {**_GRAPH, "require_self_loops": "false"}),
    ("privacy", {**_PRIVATE, "shared_draw": "false"}),
    # gamma takes a JSON number, not a string or a boolean
    ("gamma", "0.5"),
    ("gamma", True),
    # so do epsilon and delta
    ("privacy", {**_PRIVATE, "epsilon": True}),
    ("privacy", {**_PRIVATE, "delta": True}),
    # every block rejects a key its schema does not list
    ("privacy", {**_PRIVATE, "shared_drw": False}),
    ("privacy", {**_PRIVATE, "sensitivty": "analytic"}),
    ("graph", {**_GRAPH, "edge_set": []}),
    ("delays", {"tau_max": 3, "tau": 3}),
    ("delays", {"tau_max": 3, "comm": {"type": "uniform", "high": 3, "hgih": 3}}),
    ("output", {"fromat": "x"}),
    # strings stay strings, seeds are non-negative, and an edge is a pair
    ("run_id", None),
    ("run_id", [1]),
    ("output", {"path": 5}),
    ("delays", {"tau_max": 2, "seed": -1}),
    ("graph", {**_GRAPH, "edge_sets": [[[0, 1, 2]]]}),
    # init is a list of rows of finite JSON numbers: no strings or booleans
    ("init", [["-1"], [True], ["2"], ["5"], ["1"]]),
    ("init", [[-1.0], [True], [2.0], [5.0], [1.0]]),
    ("init", [[-1.0], ["2"], [2.0], [5.0], [1.0]]),
    ("init", [-1.0, 2.0, 2.0, 5.0, 1.0]),
    ("init", [[-1.0], [2.0, 3.0], [2.0], [5.0], [1.0]]),
    # a uniform rule draws from a non-empty range
    ("delays", {"tau_max": 10, "comm": {"type": "uniform", "low": 7, "high": 3}}),
    # a schedule that fails the connectivity check it asks for
    ("graph", {"type": "periodic", "num_agents": 5, "b_window": 1, "validate_connectivity": True,
               "edge_sets": [[[0, 1], [1, 2], [2, 3], [3, 4]], [[4, 0]]]}),
    # a fixed rule lists each pair once
    ("delays", {"tau_max": 3, "comm": {"type": "fixed", "entries": [[3, 1, 2], [3, 1, 1]]}}),
    ("delays", {"tau_max": 3, "feedback": {"type": "fixed", "entries": [[0, 1], [0, 2]]}}),
])
def test_non_finite_or_mistyped_value_is_a_config_error(key, value, tmp_path, capsys):
    """A bad config value, a bad ``--option`` override of a good config, or
    a bad sweep member built from one.
    """
    d = config_to_dict(preset("fig2-baseline"))
    d["horizon"] = 3
    command, extra = "run", []
    if key == "sweep":
        command, extra = "sweep", value
    elif key.startswith("--"):
        extra = [key, str(value)]
    else:
        d[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))  # NaN and Infinity tokens, as Python's json reads them
    rc = cli.main([command, "--config", str(p), "--out", str(tmp_path / "r.csv"), *extra])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_a_fixed_delay_key_listed_twice_is_named_with_its_rule():
    d = config_to_dict(preset("fig5-fixed-delay"))
    d["delays"]["comm"]["entries"] = [[3, 1, 2], [0, 2, 1], [3, 1, 1], [0, 2, 1]]
    d["delays"]["feedback"] = {"type": "fixed", "entries": [[0, 1], [0, 2]]}
    with pytest.raises(ConfigError) as e:
        config_from_dict(d)
    assert e.value.errors == ["delays: comm: entries: key (0, 2), (3, 1) listed more than once",
                              "delays: feedback: entries: key 0 listed more than once"]


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(json.dumps(config_to_dict(preset("fig2-baseline"))).encode()[:-1] + b' \xff}')
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(p)
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "r.csv")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("rule", ["comm", "feedback"])
def test_uniform_rule_without_low_starts_at_zero(rule, tmp_path, capsys):
    d = {**config_to_dict(preset("fig6-random-delays")), "horizon": 30}
    records = []
    for uniform in ({"type": "uniform", "high": 2}, {"type": "uniform", "low": 0, "high": 2}):
        p, out = tmp_path / f"{len(records)}.json", tmp_path / f"{len(records)}.csv"
        p.write_text(json.dumps({**d, "delays": {"tau_max": 2, rule: uniform}}))
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 0
        assert cli.main(["verify", "--config", str(p)]) == 0
        records.append(out.read_text())
    assert records[0] == records[1]
    # a rule built through the Python API carries its low too
    delays = dp.DelaySchedule(2, **{rule: {"type": "uniform", "high": 2}})
    assert getattr(delays, rule) == {"type": "uniform", "high": 2, "low": 0}


@pytest.mark.parametrize("bad, expected", [
    ({"b_window": 1.5, "validate_connectivity": "false", "edge_sets": [[[0, 9]]]},
     ["b_window", "validate_connectivity", "edge (0, 9)"]),
    ({"b_window": 1.5, "num_agents": 5.0}, ["b_window", "num_agents"]),
])
def test_each_bad_graph_key_is_itemized(bad, expected):
    # one bad graph key hides none of the others
    d = config_to_dict(preset("fig2-baseline"))
    d["graph"] = {**_GRAPH, **bad}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(d)
    assert len(exc.value.errors) == len(expected)
    for error, key in zip(exc.value.errors, expected):
        assert error.startswith("graph: ") and key in error


def _private_fig2_run(privacy, tmp_path):
    """``dpgames run`` of a 5-round fig2 copy with the given privacy block,
    every warning raised as an error; its exit code and the records path."""
    d = {**config_to_dict(preset("fig2-baseline")), "horizon": 5, "privacy": privacy}
    p, out = tmp_path / "private.json", tmp_path / "r.csv"
    p.write_text(json.dumps(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(["run", "--config", str(p), "--out", str(out)]), out


@pytest.mark.parametrize("privacy", [
    {"mode": "sigma", "sigma": 1e-300, "delta": 1e300},    # Delta / sigma overflows
    {"mode": "epsilon", "epsilon": 1e-300, "delta": 1e10},  # sigma = Delta / epsilon overflows
], ids=["loss", "scale"])
def test_manual_privacy_scales_that_overflow_are_a_config_error(privacy, tmp_path, capsys):
    rc, out = _private_fig2_run({**privacy, "sensitivity": "manual"}, tmp_path)
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists() and err.count("\n") == 1
    assert err.startswith("config error: privacy: Delta = ")
    assert err.endswith(": sigma and Delta / sigma must be finite and > 0\n")


@pytest.mark.parametrize("privacy", [
    {"mode": "sigma", "sigma": 1e-306},    # Delta / sigma overflows
    {"mode": "epsilon", "epsilon": 1e-306},  # sigma = Delta / epsilon overflows
], ids=["loss", "scale"])
def test_analytic_privacy_scales_that_overflow_fail_before_round_0(privacy, tmp_path, capsys):
    rc, out = _private_fig2_run({**privacy, "sensitivity": "analytic"}, tmp_path)
    err = capsys.readouterr().err
    assert rc == 1 and not out.exists() and not Path(f"{out}.summary.json").exists()
    assert err.count("\n") == 1
    assert re.fullmatch(r"error: Delta = 44550, sigma = (1e-306|inf): sigma and Delta / sigma "
                        r"must be finite and > 0\n", err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_diverging_run_exits_nonzero_with_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(dp.game.GAME_REGISTRY, "nash-cournot", diverging_cournot)
    out = tmp_path / "r.csv"
    rc = cli.main(["run", "--preset", "fig5-fixed-delay", "--horizon", "6", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and not out.exists()
    assert err.count("\n") == 1
    assert err.startswith("error: non-finite state at round 2, agent 0")


def _huge_noise_config(tmp_path):
    # finite inputs whose round-1 dual variable is about 1e200: its norm's
    # square overflows, so b_norm is infinite while b is finite
    d = {**config_to_dict(preset("fig2-baseline")), "horizon": 1,
         "privacy": {"mode": "sigma", "sigma": 1e200, "delta": 1.0}}
    p = tmp_path / "huge-noise.json"
    p.write_text(json.dumps(d))
    return p


@pytest.mark.parametrize("fmt", ["object-lines", "tabular"])
def test_non_finite_record_exits_nonzero_and_writes_nothing(fmt, tmp_path, capsys):
    out = tmp_path / "r.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow warning either
        rc = cli.main(["run", "--config", str(_huge_noise_config(tmp_path)),
                       "--format", fmt, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite b_norm at round 1, agent 0\n"
    assert not out.exists() and not (tmp_path / "r.out.summary.json").exists()


@pytest.mark.parametrize("fmt", ["object-lines", "tabular"])
def test_write_records_names_the_first_non_finite_cell(fmt, tmp_path):
    result = dp.run(load_config(_huge_noise_config(tmp_path)))
    out = tmp_path / "r.out"
    with pytest.raises(NonFiniteStateError, match=r"^non-finite b_norm at round 1, agent 0$"):
        cli.write_records(result, out, fmt)
    ok = dp.run(replace(preset("fig2-baseline"), horizon=4))
    loss_true = ok.loss_true.copy()
    loss_true[3, 2] = np.nan
    x = ok.x.copy()
    x[3, 4, 0] = np.inf  # later in row order than agent 2's loss_true
    with pytest.raises(NonFiniteStateError, match=r"^non-finite loss_true at round 3, agent 2$"):
        cli.write_records(replace(ok, loss_true=loss_true, x=x), out, fmt)
    assert not out.exists()


def test_tau_max_beyond_the_32_bit_draw_is_a_config_error(tmp_path, capsys):
    d = config_to_dict(preset("fig7-random-delays-private"))
    d["delays"]["tau_max"] = 10 ** 12
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(d))
    out = tmp_path / "r.csv"
    assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: delays: tau_max must lie in [0, 2^31)")
    assert "Traceback" not in err and not out.exists()


def test_out_of_memory_exits_nonzero_with_one_error_line(tmp_path, capsys, monkeypatch):
    # what numpy raises when a run's rings cannot be allocated
    def allocate(cfg):
        raise MemoryError("Unable to allocate 160. GiB for an array with shape "
                          "(2147483647, 5, 2) and data type float64")

    monkeypatch.setattr(cli.engine, "run", allocate)
    out = tmp_path / "r.csv"
    assert cli.main(["run", "--preset", "fig7-random-delays-private", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: out of memory: Unable to allocate 160. GiB")
    assert not out.exists()
