"""One repetition of the user's figure pipeline, stage by stage.

The stages are what a user pays for a verified, analysed figure: the run,
writing its records and summary, the augmented virtual-agent twin, the
verification battery, and the equilibrium oracle plus dynamic regret. Every
call goes through a ``dpgames`` module attribute, so a tracer's wrappers see
it. Before the first stage and after each one the reference kernel is
timed, outside the stages' times and spans, to calibrate them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from dpgames import cli, engine, metrics

import reference
from checks import Outputs


def repetition(workload, cfg, game, workdir: Path,
               tracer=None) -> tuple[dict[str, float], list[float], Outputs]:
    """Run every stage once; returns the seconds per stage, the reference
    kernel's seconds before the first stage and after each one, and the
    outputs.
    """
    times: dict[str, float] = {}
    refs = [reference.seconds()]

    @contextmanager
    def stage(name):
        span = tracer.stage_span(name) if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        with span:
            yield
        times[name] = time.perf_counter() - t0
        refs.append(reference.seconds())

    records = workdir / ("records.csv" if workload.fmt == "tabular" else "records.jsonl")
    summary = workdir / "summary.json"
    with stage("run"):
        result = engine.run(cfg)
    with stage("write"):
        cli.write_records(result, records, workload.fmt)
        cli.write_summary(result, summary)
    with stage("twin"):
        twin = engine.run_augmented_reference(cfg)
    with stage("verify"):
        verify = cli.verify_checks(cfg)
    with stage("regret"):
        solutions = metrics.solve_equilibria(game, range(cfg.horizon + 1))
        regret = metrics.dynamic_regret(game, result.x, solutions, losses=result.loss_local)
    return times, refs, Outputs(result, twin, verify, solutions, regret, records, summary)
