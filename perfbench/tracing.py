"""Spans around calls into the library, installed from outside it.

``Tracer.installed()`` replaces each traced function with a wrapper at
every name a caller resolves: the engine and graph import ``substream`` by
name and the CLI imports ``augment`` and ``validate_b_connectivity`` by
name, so patching ``dpgames.privacy.substream`` alone would miss most calls.
Methods are patched on the class that defines them, so ``World.step`` and
``_AugmentedWorld.step`` are separate spans. Every original is restored on
exit, and ``restored()`` confirms it.

A span is (name, start ns, end ns, parent index, stage). Spans are recorded
only inside a ``stage`` block, so work the benchmark does between stages
(its own correctness checks) is never attributed to a layer. Inclusive time
of a span is end - start; self time subtracts its direct children, which
never overlap because the program is single threaded.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from dpgames import cli, engine, game, graph, metrics, privacy

# (span name, owner, attribute): owner is a module (patched at every module
# binding of the same object) or a class (patched on the class itself).
TRACED = [
    ("privacy.substream", privacy, "substream"),
    ("privacy.sample_noise", privacy, "sample_noise"),
    ("privacy.ledger_record", privacy.PrivacyLedger, "record"),
    ("graph.comm_delay", graph.DelaySchedule, "comm_delay"),
    ("graph.feedback_delay", graph.DelaySchedule, "feedback_delay"),
    ("graph.comm_matrix", graph.DelaySchedule, "comm_matrix"),
    ("graph.augment", graph, "augment"),
    ("graph.weights_at", graph.GraphSchedule, "weights_at"),
    ("graph.validate_b_connectivity", graph, "validate_b_connectivity"),
    ("graph.eigenvector_floor", graph, "eigenvector_floor"),
    ("game.local_gradient", game.GameSpec, "local_gradient"),
    ("game.psi", game.GameSpec, "psi"),
    ("game.cost", game.GameSpec, "cost"),
    ("game.pseudogradient", game.GameSpec, "pseudogradient"),
    ("engine.run", engine, "run"),
    ("engine.run_augmented_reference", engine, "run_augmented_reference"),
    ("engine.step", engine.World, "step"),
    ("engine.twin_step", engine._AugmentedWorld, "step"),
    ("engine.apply_updates", engine.World, "_apply_updates"),
    ("engine.collect", engine, "_collect"),
    ("metrics.ne_oracle", metrics, "ne_oracle"),
    ("metrics.solve_equilibria", metrics, "solve_equilibria"),
    ("metrics.dynamic_regret", metrics, "dynamic_regret"),
    ("cli.write_records", cli, "write_records"),
    ("cli.write_summary", cli, "write_summary"),
    ("cli.verify_checks", cli, "verify_checks"),
]


def _get(owner, attr: str):
    """The attribute itself: a class's own dict entry, or a module global."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dpgames" or name.startswith("dpgames."))]


class Tracer:
    """Spans and counters for one traced pipeline repetition at a time.

    ``edges_at`` is the workload's graph rule; with it the tracer counts
    how many of the delay pairs ``comm_matrix`` draws are real edges.
    """

    def __init__(self, edges_at):
        self.edges_at = edges_at
        self._useful_cache: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.bindings: list[str] = []  # every name patched by the last install
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.stage: str | None = None
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def stage_span(self, stage: str):
        """Root span for one pipeline stage; layer spans inside it carry it."""
        self.stage = stage
        rec = ["stage." + stage, time.perf_counter_ns(), 0, None, stage]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
            self.stage = None

    def _wrap(self, name: str, fn):
        tracer = self
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if tracer.stage is None:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            rec = [name, 0, 0, stack[-1] if stack else None, tracer.stage]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, key: str, value: float) -> None:
        self.counters[(self.stage, key)] += value

    # counters measured where the work happens

    def _after_graph_comm_matrix(self, args, kwargs, result):
        t, n = args[1], args[2]
        if t not in self._useful_cache:
            self._useful_cache[t] = sum(1 for s, d in self.edges_at(t) if s != d)
        self._count("graph.comm_matrix.pairs", n * (n - 1))
        self._count("graph.comm_matrix.useful_pairs", self._useful_cache[t])

    def _after_engine_step(self, args, kwargs, result):
        world = args[0]
        key = (self.stage, "engine.peak_in_flight")
        self.counters[key] = max(self.counters[key], world.messages_pending())

    def _after_metrics_ne_oracle(self, args, kwargs, result):
        self._count("metrics.ne_oracle.iterations", result.iterations)

    def _after_cli_write_records(self, args, kwargs, result):
        self._count("cli.write_records.bytes", os.path.getsize(args[1]))

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrappers in place for the block; every original back after it."""
        self._patches, self.bindings = [], []
        try:
            for name, owner, attr in TRACED:
                self._install(name, owner, attr)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)

    def _install(self, name: str, owner, attr: str) -> None:
        original = _get(owner, attr)
        if hasattr(original, "__wrapped__"):
            raise RuntimeError(f"{name} is still wrapped by an earlier tracer")
        if isinstance(owner, type):
            targets = [(owner, attr, f"{owner.__module__}.{owner.__name__}.{attr}")]
        else:
            targets = [(module, binding, f"{module.__name__}.{binding}")
                       for module in _library_modules()
                       for binding, value in list(vars(module).items()) if value is original]
        wrapper = self._wrap(name, original)
        for target, binding, label in targets:
            self._patches.append((target, binding, original))
            self.bindings.append(label)
            setattr(target, binding, wrapper)

    def restored(self) -> bool:
        """True when every binding the last ``installed`` patched holds its
        original again (and ``_install`` refuses to wrap a wrapper, so each
        install starts from the originals).
        """
        return all(_get(owner, attr) is original for owner, attr, original in self._patches)

    # -- analysis ----------------------------------------------------------

    def _child_ns(self) -> list[int]:
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, stage in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        return child_ns

    def aggregate(self) -> dict[tuple[str, str], dict[str, float]]:
        """{(stage, span name): {"calls", "s", "self_s"}} over recorded spans."""
        agg: dict[tuple[str, str], list[int]] = {}
        for (name, t0, t1, parent, stage), child in zip(self.spans, self._child_ns()):
            row = agg.setdefault((stage, name), [0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child
        return {key: {"calls": calls, "s": ns * 1e-9, "self_s": self_ns * 1e-9}
                for key, (calls, ns, self_ns) in agg.items()}

    def accounting_error(self, start_ns: int, end_ns: int) -> str | None:
        """Check that the span tree partitions the traced wall time.

        Every span must lie inside its parent (root spans inside the traced
        interval) and start after its previous sibling ends. Then the self
        times of all spans plus the time no root span covers add up to the
        wall time exactly. Returns the first violation, or None.
        """
        last_end: dict[int | None, int] = {None: start_ns}
        for k, (name, t0, t1, parent, stage) in enumerate(self.spans):
            lo, hi = (start_ns, end_ns) if parent is None else self.spans[parent][1:3]
            if not (lo <= t0 <= t1 <= hi):
                return f"span {k} ({name}) lies outside its parent"
            if t0 < last_end.get(parent, lo):
                return f"span {k} ({name}) overlaps its previous sibling"
            last_end[parent] = t1
        wall_ns = end_ns - start_ns
        unspanned = wall_ns - sum(t1 - t0 for _, t0, t1, parent, _ in self.spans
                                  if parent is None)
        self_ns = sum(t1 - t0 - child for (_, t0, t1, _, _), child
                      in zip(self.spans, self._child_ns()))
        if self_ns + unspanned != wall_ns:
            return f"self times {self_ns} ns + unspanned {unspanned} ns != wall {wall_ns} ns"
        return None
