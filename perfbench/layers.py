"""Per-layer metrics of a traced repetition, by name.

Scope rule: a function that ``engine.run`` calls is measured inside the run
stage, since that is the simulation a perf change to it targets first; a
``twin.``, ``verify.`` or ``regret.`` prefix names the same function inside
that stage instead. A function that ``engine.run`` never calls is measured
over the whole repetition. ``.calls`` counts calls, ``.s`` is inclusive
time and ``.self_s`` excludes time in traced children.
"""

from __future__ import annotations

# (metric name, span or counter name, statistic, stage or None for all, unit)
LAYER_METRICS = [
    ("privacy.substream.calls", "privacy.substream", "calls", "run", "count"),
    ("privacy.substream.s", "privacy.substream", "s", "run", "s"),
    ("twin.privacy.substream.calls", "privacy.substream", "calls", "twin", "count"),
    ("twin.privacy.substream.s", "privacy.substream", "s", "twin", "s"),
    ("verify.privacy.substream.calls", "privacy.substream", "calls", "verify", "count"),
    ("verify.privacy.substream.s", "privacy.substream", "s", "verify", "s"),
    ("privacy.sample_noise.calls", "privacy.sample_noise", "calls", "run", "count"),
    ("privacy.sample_noise.s", "privacy.sample_noise", "s", "run", "s"),
    ("privacy.ledger_record.s", "privacy.ledger_record", "s", "run", "s"),
    ("graph.comm_delay.calls", "graph.comm_delay", "calls", "run", "count"),
    ("graph.comm_delay.s", "graph.comm_delay", "s", "run", "s"),
    ("graph.feedback_delay.calls", "graph.feedback_delay", "calls", "run", "count"),
    ("graph.feedback_delay.s", "graph.feedback_delay", "s", "run", "s"),
    ("graph.comm_matrix.calls", "graph.comm_matrix", "calls", None, "count"),
    ("graph.comm_matrix.s", "graph.comm_matrix", "s", None, "s"),
    ("graph.comm_matrix.useful_frac", "graph.comm_matrix.useful_frac", "counter", None, "ratio"),
    ("graph.augment.calls", "graph.augment", "calls", None, "count"),
    ("graph.augment.s", "graph.augment", "s", None, "s"),
    ("graph.weights_at.calls", "graph.weights_at", "calls", "run", "count"),
    ("graph.weights_at.s", "graph.weights_at", "s", "run", "s"),
    ("graph.validate_b_connectivity.s", "graph.validate_b_connectivity", "s", None, "s"),
    ("graph.eigenvector_floor.s", "graph.eigenvector_floor", "s", "run", "s"),
    ("game.local_gradient.calls", "game.local_gradient", "calls", "run", "count"),
    ("game.local_gradient.s", "game.local_gradient", "s", "run", "s"),
    ("game.psi.calls", "game.psi", "calls", "run", "count"),
    ("game.psi.s", "game.psi", "s", "run", "s"),
    ("game.cost.calls", "game.cost", "calls", "run", "count"),
    ("game.cost.s", "game.cost", "s", "run", "s"),
    ("regret.game.cost.calls", "game.cost", "calls", "regret", "count"),
    ("regret.game.cost.s", "game.cost", "s", "regret", "s"),
    ("game.pseudogradient.calls", "game.pseudogradient", "calls", None, "count"),
    ("game.pseudogradient.s", "game.pseudogradient", "s", None, "s"),
    ("engine.step.calls", "engine.step", "calls", "run", "count"),
    ("engine.step.self_s", "engine.step", "self_s", "run", "s"),
    ("engine.apply_updates.self_s", "engine.apply_updates", "self_s", "run", "s"),
    ("engine.collect.self_s", "engine.collect", "self_s", "run", "s"),
    ("engine.twin_step.self_s", "engine.twin_step", "self_s", None, "s"),
    ("engine.messages_enqueued", "engine.messages_enqueued", "counter", "run", "count"),
    ("engine.messages_delivered", "engine.messages_delivered", "counter", "run", "count"),
    ("engine.peak_in_flight", "engine.peak_in_flight", "counter", "run", "count"),
    ("metrics.ne_oracle.iterations", "metrics.ne_oracle.iterations", "counter", None, "count"),
    ("metrics.solve_equilibria.s", "metrics.solve_equilibria", "s", None, "s"),
    ("metrics.dynamic_regret.s", "metrics.dynamic_regret", "s", None, "s"),
    ("cli.write_records.s", "cli.write_records", "s", None, "s"),
    ("cli.write_records.bytes", "cli.write_records.bytes", "counter", None, "bytes"),
    ("cli.write_summary.s", "cli.write_summary", "s", None, "s"),
    ("cli.verify_checks.self_s", "cli.verify_checks", "self_s", None, "s"),
]

OVERHEAD_METRIC = ("trace.overhead_frac", "ratio")

# Spans every workload must record: the stage entry points, and the
# functions the CLI, engine and graph import by name, whose wrappers a
# tracer patching only the defining module would miss.
REQUIRED_SPANS = ("engine.run", "engine.run_augmented_reference", "cli.write_records",
                  "cli.write_summary", "cli.verify_checks", "metrics.solve_equilibria",
                  "metrics.dynamic_regret", "metrics.ne_oracle", "graph.augment",
                  "graph.validate_b_connectivity")
RANDOM_SPANS = ("privacy.substream",)  # required where noise or random delays are on


def counters(tracer, result) -> dict[tuple[str | None, str], float]:
    """The tracer's counters, summed over stages under the None scope, plus
    the message counters of the run stage's ``RunResult``.
    """
    out: dict[tuple[str | None, str], float] = {}
    for (stage, key), value in tracer.counters.items():
        out[(stage, key)] = value
        if key == "engine.peak_in_flight":
            continue
        out[(None, key)] = out.get((None, key), 0) + value
    pairs = out.get((None, "graph.comm_matrix.pairs"), 0)
    out[(None, "graph.comm_matrix.useful_frac")] = (
        out.get((None, "graph.comm_matrix.useful_pairs"), 0) / pairs if pairs else 0.0)
    out[("run", "engine.messages_enqueued")] = result.messages_enqueued
    out[("run", "engine.messages_delivered")] = result.messages_delivered
    out.setdefault(("run", "engine.peak_in_flight"), 0)
    return out


def layer_values(agg, counts) -> dict[str, float]:
    """Every LAYER_METRICS value of one traced repetition."""
    values = {}
    for metric, source, stat, scope, _unit in LAYER_METRICS:
        if stat == "counter":
            values[metric] = counts.get((scope, source), 0)
        else:
            values[metric] = sum(row[stat] for (stage, name), row in agg.items()
                                 if name == source and scope in (None, stage))
    return values
