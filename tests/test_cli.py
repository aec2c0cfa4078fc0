import json

import pytest

import dpgames as dp
from dpgames import cli
from dpgames.cli import (ConfigError, config_from_dict, config_to_dict, derive_seed,
                         load_config, preset, write_config)

from conftest import diverging_cournot


def test_config_round_trip(tmp_path):
    for name in cli.PRESETS:
        cfg = preset(name)
        path = tmp_path / f"{name}.json"
        write_config(cfg, path)
        loaded = load_config(path)
        assert config_to_dict(loaded) == config_to_dict(cfg)


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


def test_summary_contents(tmp_path):
    out = tmp_path / "r.csv"
    cli.main(["run", "--preset", "fig2-baseline", "--horizon", "150",
              "--out", str(out)])
    summary = json.loads((tmp_path / "r.csv.summary.json").read_text())
    assert summary["epsilon_hat"] == pytest.approx(30.0)
    assert summary["empirical_theta"] >= 1.0
    assert len(summary["ledger"]) == 150
    assert summary["messages_enqueued"] == summary["messages_delivered"]
    assert set(summary["stabilization"]) == {"0", "1", "2", "3", "4"}


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
    sched = dp.GraphSchedule.from_descriptor(
        {k: v for k, v in d["graph"].items() if k != "b_window"})
    assert dp.validate_b_connectivity(sched, 2, 40).ok


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


def test_config_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    assert cli.main(["run", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


_PRIVATE = {"mode": "epsilon", "epsilon": 0.2, "sensitivity": "manual", "delta": 1.0}


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
    ("graph", {**cli.benchmark_graph().to_descriptor(), "num_agents": 10 ** 30}),
    # fixed delay entries a 5-agent run would never read
    ("delays", {"tau_max": 2, "comm": {"type": "fixed", "entries": [[7, 1, 2]]}}),
    ("delays", {"tau_max": 2, "feedback": {"type": "fixed", "entries": [[9, 1]]}}),
    ("delays", {"tau_max": 2, "comm": {"type": "fixed", "entries": [[2, 2, 1]]}}),
    # sweep members are validated like the config they come from
    ("sweep", ["--axis", "seed", "--values", "-1"]),
    ("sweep", ["--axis", "gamma", "--values", "nan"]),
    ("sweep", ["--axis", "T", "--values", "2.7"]),
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_diverging_run_exits_nonzero_with_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(dp.game.GAME_REGISTRY, "nash-cournot", diverging_cournot)
    out = tmp_path / "r.csv"
    rc = cli.main(["run", "--preset", "fig5-fixed-delay", "--horizon", "6", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and not out.exists()
    assert err.count("\n") == 1
    assert err.startswith("error: non-finite state at round 2, agent 0")
