"""The benchmark under ``perfbench/`` patches library functions by name and
reads some of their results; a rename or a changed result type there would
only show when the benchmark runs traced. These tests read ``perfbench/``
and change nothing in it.
"""

import sys
import time
from pathlib import Path

import pytest

import dpgames as dp
from dpgames import cli, metrics

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import layers  # noqa: E402
import pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name, owner, attr", tracing.TRACED, ids=[n for n, _, _ in tracing.TRACED])
def test_traced_binding_resolves_to_a_callable(name, owner, attr):
    assert callable(tracing._get(owner, attr)), name


def test_required_spans_are_traced():
    traced = {name for name, _, _ in tracing.TRACED}
    assert set(layers.REQUIRED_SPANS) <= traced


def test_solve_equilibria_calls_the_module_oracle_for_the_unscreened_rounds(monkeypatch):
    # the tracer counts oracle iterations through the module global; rounds
    # settled by their warm start in the screening call never reach it
    calls = []

    def counting(game, t, **kwargs):
        sol = oracle(game, t, **kwargs)
        calls.append((t, sol.iterations))
        return sol

    oracle = metrics.ne_oracle
    monkeypatch.setattr(metrics, "ne_oracle", counting)
    sols = metrics.solve_equilibria(dp.nash_cournot(), range(3))
    assert calls == [(0, 2), (1, 1)]
    assert calls == [(s.t, s.iterations) for s in sols[:2]]


@pytest.mark.parametrize("name, calls", [("fig7-delays-private", 2), ("fig5-fixed-delay", 2),
                                         ("scale-v20-random-digraph", 4)])
def test_verify_augments_once_per_edge_set_the_horizon_reaches(name, calls, monkeypatch):
    # the graph.augment span of the verify stage: one matrix per distinct
    # edge set, at the workload's own horizon
    built = []
    augment = cli.augment
    monkeypatch.setattr(cli, "augment", lambda *args: built.append(args) or augment(*args))
    cli.verify_checks(workloads.WORKLOADS[name].config(7))
    assert len(built) == calls


def test_scale_oracle_iteration_count_is_pinned():
    # a change to the oracle's step or stopping rule moves this count
    sol = metrics.ne_oracle(workloads.scale_game(), 0)
    assert sol.iterations == 14


def test_oracle_makes_one_pseudogradient_call_per_iteration(monkeypatch):
    # so that on the scaling workload's regret stage the traced
    # game.pseudogradient.calls equals metrics.ne_oracle.iterations
    calls, iterations = [], []
    pseudogradient, oracle = dp.GameSpec.pseudogradient, metrics.ne_oracle

    def counting(game, t, **kwargs):
        sol = oracle(game, t, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(dp.GameSpec, "pseudogradient",
                        lambda self, t, x: calls.append(t) or pseudogradient(self, t, x))
    monkeypatch.setattr(metrics, "ne_oracle", counting)
    metrics.solve_equilibria(workloads.scale_game(), range(21))
    assert calls.count(0) == iterations[0] == 14
    assert len(calls) == sum(iterations)


def test_scale_oracle_meets_the_benchmark_kkt_gate():
    # the benchmark's oracle-kkt gate: a forward-backward residual tol with
    # step alpha = mu / L_F^2 bounds the KKT violation by tol / alpha
    game = workloads.scale_game()
    tol = 1e-10
    sol = metrics.ne_oracle(game, 0, tol=tol)
    bound = tol * game.grad_lipschitz ** 2 / game.mu
    assert metrics.kkt_max_violation(game, 0, sol.x_star) <= bound


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_repetition_records_the_gated_spans(name, tmp_path):
    # the gates a traced benchmark run applies to every repetition: the
    # required spans are recorded, the span tree partitions the wall time,
    # and every patched binding holds its original afterwards
    workload = workloads.WORKLOADS[name]
    cfg = workload.config(7, horizon=4)
    tracer = tracing.Tracer(cfg.graph.edges_at)
    with tracer.installed():
        start = time.perf_counter_ns()
        pipeline.repetition(workload, cfg, cfg.resolved_game(), tmp_path, tracer)
        end = time.perf_counter_ns()
    required = set(layers.REQUIRED_SPANS)
    if cfg.noise.enabled or cfg.delays.comm["type"] == "uniform":
        required.update(layers.RANDOM_SPANS)
    assert required <= {span for _, span in tracer.aggregate()}
    assert tracer.accounting_error(start, end) is None
    assert tracer.restored()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_gate_passes_on_every_workload(name, tmp_path):
    # the correctness gate of every benchmark repetition, untraced; on fig5,
    # fig7 and scale it reads the ledger with noise off, at exactly T * eps,
    # and as T per-round records
    workload = workloads.WORKLOADS[name]
    cfg = workload.config(7, horizon=4)
    game = cfg.resolved_game()
    _, _, out = pipeline.repetition(workload, cfg, game, tmp_path)
    failed = [(check, detail) for check, ok, detail in checks.gate(workload, cfg, game, out, None)
              if not ok]
    assert failed == []
