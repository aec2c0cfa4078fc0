"""Benchmark of the dpgames figure pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One process drives the library from ``src/`` with one BLAS thread. It
repeats the pipeline (run, record writing, augmented twin, verify, oracle
plus regret) for S seconds and reports the median over repetitions of each
stage's time calibrated by the reference kernel in ``reference.py``, and
the median calibrated set-up time of nine fresh interpreters; README.md
says why. Every repetition passes through the
correctness gate in ``checks.py``. With ``--trace 1`` it alternates plain
and traced repetitions and reports the per-layer metrics of ``layers.py``
instead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; per-run details, and in traced
runs the aggregated spans, go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import env

WORKLOAD_NAMES = ("fig7-delays-private", "fig5-fixed-delay", "scale-v20-random-digraph")
SETUP_SPAWNS = 9       # set-up is the median of this many fresh interpreters
WARMUP_HORIZON = 4     # one untimed repetition at this horizon fills lazy imports
MIN_REPS = 3           # plain repetitions (and traced ones, with --trace 1)
CHILD_TIMEOUT_S = 120

END_TO_END = [  # (name, unit); pipeline stages map to the first five
    ("run_s", "s"), ("record_write_s", "s"), ("twin_s", "s"), ("verify_s", "s"),
    ("regret_s", "s"), ("pipeline_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
]
STAGE_METRIC = {"run": "run_s", "write": "record_write_s", "twin": "twin_s",
                "verify": "verify_s", "regret": "regret_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_once(name: str, seed: int) -> tuple[float, float]:
    """Set-up seconds of the workload in one fresh interpreter, and the mean
    of the reference kernel's seconds right before it (here) and right
    after it (in the child).
    """
    import reference

    cmd = [sys.executable, str(Path(__file__).with_name("setup_child.py")), name, str(seed)]
    before = reference.seconds()
    done = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    setup_s, after = map(float, done.stdout.strip().splitlines()[-1].split())
    return setup_s, (before + after) / 2


def calibrated(seconds: float, ref_s: float) -> float:
    """Seconds scaled by the reference kernel's slowdown at the time."""
    from reference import REFERENCE_S

    return seconds / ref_s * REFERENCE_S


class Runner:
    """Repetitions of one workload, with the gate's tally."""

    def __init__(self, workload, seed: int, workdir: Path):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload]
        self.cfg = self.workload.config(seed)
        if self.workload.check is not None:
            self.workload.check(self.cfg)
        self.game = self.cfg.resolved_game()
        self.workdir = workdir
        self.first_digest = None
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def record(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append((name, detail))

    def repetition(self, tracer=None) -> tuple[dict[str, float], dict[str, float], object] | None:
        """Raw and calibrated stage times and the outputs of one gated
        repetition; None when the library raised, which counts as a failed
        check and ends the run. Both time dicts include "pipeline", the sum.
        """
        import checks
        import pipeline

        gc.collect()
        try:
            times, refs, out = pipeline.repetition(self.workload, self.cfg, self.game,
                                                   self.workdir, tracer)
        except Exception as e:  # noqa: BLE001 - reported as a failed check
            self.record("pipeline-raised", False, f"{type(e).__name__}: {e}")
            return None
        for name, ok, detail in checks.gate(self.workload, self.cfg, self.game, out,
                                            self.first_digest):
            self.record(name, ok, detail)
        if self.first_digest is None:
            self.first_digest = checks.file_digest(out)
        # one factor per repetition: the median of its six kernel samples
        # is steadier than the two samples next to a stage, and a
        # repetition is shorter than the machine's slow or fast spells
        ref_s = statistics.median(refs)
        cal = {stage: calibrated(s, ref_s) for stage, s in times.items()}
        times["pipeline"] = sum(times.values())
        cal["pipeline"] = sum(cal.values())
        return times, cal, out

    def warm_up(self) -> None:
        import pipeline

        pipeline.repetition(self.workload, replace(self.cfg, horizon=WARMUP_HORIZON),
                            self.game, self.workdir)


def _keep_going(started: float, seconds: float, rep_times: list[float], reps: int) -> bool:
    """Another repetition fits: fewer than MIN_REPS so far, or the median
    repetition would still end inside the measuring window.
    """
    if reps < MIN_REPS:
        return True
    return time.perf_counter() - started + statistics.median(rep_times) <= seconds


def plain_run(runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    """SETUP_SPAWNS set-up interpreters, then plain repetitions for ``seconds``."""
    setup_once(runner.workload.name, seed)  # compiles bytecode; not timed
    setup = [setup_once(runner.workload.name, seed) for _ in range(SETUP_SPAWNS)]
    raw: dict[str, list[float]] = {}
    cal: dict[str, list[float]] = {}
    rep_times: list[float] = []
    started = time.perf_counter()
    while _keep_going(started, seconds, rep_times, len(rep_times)):
        t0 = time.perf_counter()
        rep = runner.repetition()
        if rep is None:
            break
        for stage in rep[0]:
            raw.setdefault(stage, []).append(rep[0][stage])
            cal.setdefault(stage, []).append(rep[1][stage])
        rep_times.append(time.perf_counter() - t0)
    if not rep_times:
        raise SystemExit(f"error: no repetition completed: {runner.failures}")
    metrics = {STAGE_METRIC.get(stage, stage + "_s"): statistics.median(v)
               for stage, v in cal.items()}
    metrics["setup_s"] = statistics.median(calibrated(s, ref) for s, ref in setup)
    detail = {"repetitions": len(rep_times), "raw_stage_s": raw, "calibrated_stage_s": cal,
              "raw_setup_and_reference_s": setup}
    return metrics, detail


def traced_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    import layers
    from tracing import Tracer

    tracer = Tracer(runner.cfg.graph.edges_at)
    plain, traced, per_rep = [], [], []
    started = time.perf_counter()
    rep_times: list[float] = []
    while _keep_going(started, seconds, rep_times, len(traced)):
        t0 = time.perf_counter()
        rep = runner.repetition()
        if rep is None:
            break
        plain.append(rep[1]["pipeline"])
        tracer.reset()
        with tracer.installed():
            start = time.perf_counter_ns()
            rep = runner.repetition(tracer)
            end = time.perf_counter_ns()
        if rep is None:
            break
        _, cal, out = rep
        traced.append(cal["pipeline"])
        rep_times.append(time.perf_counter() - t0)
        err = tracer.accounting_error(start, end)
        runner.record("trace-accounting", err is None, err or "span tree partitions wall time")
        spans = tracer.aggregate()
        per_rep.append(layers.layer_values(spans, layers.counters(tracer, out.result)))
        tracer.reset()
    runner.record("trace-restored", tracer.restored(), "every patched binding restored")
    if not per_rep:
        raise SystemExit(f"error: no traced repetition completed: {runner.failures}")

    names = set(layers.REQUIRED_SPANS)
    if runner.cfg.noise.enabled or runner.cfg.delays.comm["type"] == "uniform":
        names.update(layers.RANDOM_SPANS)
    seen = {name for (_, name) in spans}
    for name in sorted(names):
        runner.record(f"trace-exercised:{name}", name in seen, "span recorded")

    metrics = {}
    for metric, _source, stat, _scope, _unit in layers.LAYER_METRICS:
        values = [rep[metric] for rep in per_rep]
        if stat in ("calls", "counter"):
            runner.record(f"trace-repeats:{metric}", len(set(values)) == 1,
                          f"values {sorted(set(values))}")
            metrics[metric] = values[0]
        else:
            metrics[metric] = min(values)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    detail = {
        "repetitions": len(traced), "calibrated_plain_pipeline_s": plain,
        "calibrated_traced_pipeline_s": traced,
        "bindings": tracer.bindings,
        "spans": [{"stage": stage, "name": name, **row}
                  for (stage, name), row in sorted(spans.items(), key=lambda kv: str(kv[0]))],
    }
    return metrics, detail


def run_one(args) -> int:
    import layers

    workdir = env.OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        runner.warm_up()
        if args.trace:
            values, detail = traced_run(runner, args.seconds)
            units = {m: unit for m, *_, unit in layers.LAYER_METRICS}
            units[layers.OVERHEAD_METRIC[0]] = layers.OVERHEAD_METRIC[1]
        else:
            values, detail = plain_run(runner, args.seconds, args.seed)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "horizon": runner.cfg.horizon,
              "provenance": env.provenance(),
              "check_fail_frac": failed / runner.attempted,
              "failed_checks": runner.failures, **detail}
    out_file = env.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"provenance": report["provenance"]}))
    if "raw_stage_s" in detail:
        print(json.dumps({"raw_median_s": {stage: statistics.median(v)
                                           for stage, v in detail["raw_stage_s"].items()}}))
    for name, detail_text in runner.failures[:20]:
        print(f"FAIL {name}: {detail_text}")
    for name in units:
        print(f"{args.workload} {name} = {values[name]!r} {units[name]}")
    print(f"{args.workload} check_fail_frac = {failed / runner.attempted!r} ratio "
          f"({failed} of {runner.attempted} checks failed)")
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, as the single-workload form runs it."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout[:done.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(done.stderr)
        if not done.stdout.strip():
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 1
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    env.prepare()
    env.OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
