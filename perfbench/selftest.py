"""Self-test: the benchmark's gates pass on clean outputs and bite on bad ones.

Usage (from the root of a checkout): python3 perfbench/selftest.py

For each workload, at a tiny horizon, it runs the pipeline once, confirms
that every check passes, then corrupts one output at a time and confirms
that the check guarding it fails. It also corrupts a traced span tree, and
confirms that BENCHMARK.json names exactly the metrics the benchmark
prints. Exits 0 when every gate behaves.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from dataclasses import replace

import env

HORIZON = 12
SEED = 1


def corruptions(out, game, workdir):
    """(label, corrupted outputs, check-name prefix that must fail)."""
    b = out.twin.b.copy()
    b[-1, 0, 0] += 1e-9 * max(1.0, abs(b).max())  # the gate's tolerance is 1e-12 of this scale
    yield "perturbed twin trajectory", replace(out, twin=replace(out.twin, b=b)), "run-equals-twin"

    lines = out.records.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = workdir / ("dropped" + out.records.suffix)
    dropped.write_text("".join(lines[:-1]), encoding="utf-8")
    yield "one record dropped", replace(out, records=dropped), "record-rows"

    nan = workdir / ("nan" + out.records.suffix)
    nan.write_text("".join(lines[:-1]) + _nan_line(lines[-1], out.records.suffix),
                   encoding="utf-8")
    yield "non-finite record", replace(out, records=nan), "records-finite"

    yield "changed file bytes", replace(out, records=dropped), "files-deterministic"

    name, _, detail = out.verify[0]
    yield ("failed verify entry", replace(out, verify=[(name, False, detail)] + out.verify[1:]),
           "verify:")

    lost = replace(out.result, messages_delivered=out.result.messages_delivered - 1)
    yield "lost message", replace(out, result=lost), "messages-conserved"

    sols = list(out.solutions)
    sols[0] = replace(sols[0], x_star=(sols[0].x_star + game.box_lo + game.box_hi) / 3)
    yield "wrong equilibrium", replace(out, solutions=sols), "oracle-kkt@0"


def _nan_line(line: str, suffix: str) -> str:
    if suffix == ".jsonl":
        rec = json.loads(line)
        rec["loss"] = float("nan")
        return json.dumps(rec) + "\n"
    fields = line.rstrip("\n").split(",")
    fields[-1] = "nan"
    return ",".join(fields) + "\n"


def main() -> int:
    env.prepare()
    import checks
    import layers
    import pipeline
    import run
    from tracing import Tracer
    from workloads import WORKLOADS

    ok_all = True

    def report(ok: bool, text: str) -> None:
        nonlocal ok_all
        ok_all &= ok
        print(f"{'PASS' if ok else 'FAIL'} {text}")

    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    printed_e2e = {name for name, _ in run.END_TO_END}
    printed_layer = {m[0] for m in layers.LAYER_METRICS} | {layers.OVERHEAD_METRIC[0]}
    report({m["name"] for m in declared["end_to_end"]} == printed_e2e,
           "BENCHMARK.json end_to_end names match the metrics printed with --trace 0")
    report({m["name"] for m in declared["per_layer"]} == printed_layer,
           "BENCHMARK.json per_layer names match the metrics printed with --trace 1")
    report([w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS),
           "BENCHMARK.json workloads match the benchmark's")

    workdir = env.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            cfg = workload.config(SEED, HORIZON)
            if workload.check is not None:
                workload.check(cfg)
            game = cfg.resolved_game()
            tracer = Tracer(cfg.graph.edges_at)
            with tracer.installed():
                start = time.perf_counter_ns()
                _, _, out = pipeline.repetition(workload, cfg, game, workdir, tracer)
                end = time.perf_counter_ns()
            digest = checks.file_digest(out)
            failed = [c for c in checks.gate(workload, cfg, game, out, digest) if not c[1]]
            report(not failed, f"{name}: clean outputs pass the gate {failed or ''}")
            report(tracer.restored(), f"{name}: tracer restores every binding")
            report(tracer.accounting_error(start, end) is None,
                   f"{name}: span tree partitions the traced wall time")
            child = next(s for s in tracer.spans if s[3] is not None)
            child[2] = tracer.spans[child[3]][2] + 1
            report(tracer.accounting_error(start, end + 1) is not None,
                   f"{name}: a child span outliving its parent is caught")

            for label, bad, expect in corruptions(out, game, workdir):
                caught = [c[0] for c in checks.gate(workload, cfg, game, bad, digest)
                          if not c[1]]
                report(any(c.startswith(expect) for c in caught),
                       f"{name}: {label} fails {expect} (failed: {caught})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
