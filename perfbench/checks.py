"""The correctness gate applied to every pipeline repetition.

Each check is (name, passed, detail). No trajectory hash is pinned: the
checks are invariants that any correct implementation keeps, so a change
that deliberately re-pins trajectories still passes them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dpgames import metrics

EQUIVALENCE_TOL = 1e-12  # relative to the state scale, as in ``dpgames verify``
ORACLE_TOL = 1e-10       # the tolerance ``solve_equilibria`` is called with


@dataclass
class Outputs:
    """What one pipeline repetition produced."""

    result: object        # RunResult of engine.run
    twin: object          # RunResult of engine.run_augmented_reference
    verify: list          # cli.verify_checks entries
    solutions: list       # metrics.solve_equilibria over rounds 0..T
    regret: object        # metrics.RegretReport
    records: Path
    summary: Path


def file_digest(out: Outputs) -> str:
    """Digest of the records file and of the summary without its wall time,
    the only field of the written files that may differ between two runs.
    """
    summary = json.loads(out.summary.read_text(encoding="utf-8"))
    summary.pop("wall_time_s")
    h = hashlib.sha256(out.records.read_bytes())
    h.update(json.dumps(summary, sort_keys=True).encode())
    return h.hexdigest()


def _record_values(path: Path, fmt: str) -> tuple[int, bool]:
    """(number of record rows, whether every numeric field is finite)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    finite = True
    if fmt == "tabular":
        rows = lines[1:]
        for line in rows:
            finite &= all(math.isfinite(float(f)) for f in line.split(",")[2:])
    else:
        rows = lines
        for line in rows:
            rec = json.loads(line)
            values = [rec[k] for k in ("b_norm", "loss", "avg_loss", "loss_true", "avg_loss_true")]
            values += rec["x"] + rec["x_hat"] + rec["v"]
            finite &= all(math.isfinite(v) for v in values)
    return len(rows), finite


def gate(workload, cfg, game, out: Outputs, first_digest: str | None) -> list[tuple[str, bool, str]]:
    """Every correctness check on one repetition's outputs.

    ``first_digest`` is the file digest of the first repetition in this
    process (None on the first repetition itself).
    """
    checks = []
    a, b = out.result, out.twin
    T, V = cfg.horizon, game.num_agents

    diff = max(float(np.abs(a.b - b.b).max()), float(np.abs(a.x - b.x).max()),
               float(np.abs(a.v - b.v).max()))
    scale = max(1.0, float(np.abs(a.b).max()), float(np.abs(a.v).max()))
    checks.append(("run-equals-twin", diff <= EQUIVALENCE_TOL * scale,
                   f"max diff {diff:.2e} at state scale {scale:.1e}"))

    for name, ok, detail in out.verify:
        checks.append((f"verify:{name}", ok, detail))

    sent = a.messages_delivered + a.messages_pending
    checks.append(("messages-conserved", a.messages_enqueued == sent,
                   f"enqueued {a.messages_enqueued}, delivered + pending {sent}"))

    eps_hat = a.ledger.epsilon_hat
    if not cfg.noise.enabled:
        ok = eps_hat == 0.0 and not a.ledger.records
    elif workload.fixed_epsilon:
        ok = eps_hat == T * cfg.noise.epsilon
    else:
        ok = len(a.ledger.records) == T and math.isclose(eps_hat, T * cfg.noise.epsilon,
                                                         rel_tol=1e-12)
    checks.append(("privacy-ledger", ok, f"epsilon_hat {eps_hat!r} over T={T}"))

    arrays = (a.x, a.x_hat, a.v, a.b, a.y_diag, a.loss_local, a.loss_true)
    rows, finite = _record_values(out.records, workload.fmt)
    checks.append(("records-finite", finite and all(np.isfinite(x).all() for x in arrays),
                   "trajectories and written records are finite"))
    checks.append(("record-rows", rows == (T + 1) * V, f"{rows} rows, expected {(T + 1) * V}"))

    if first_digest is not None:
        checks.append(("files-deterministic", file_digest(out) == first_digest,
                       "records and summary match the first repetition byte for byte"))

    # alpha = mu / L_F^2 is the oracle's step: a residual tol bounds the
    # gradient's KKT violation by about tol / alpha
    alpha = game.mu / game.grad_lipschitz ** 2
    for t in sorted({0, T // 2, T}):
        kkt = metrics.kkt_max_violation(game, t, out.solutions[t].x_star)
        checks.append((f"oracle-kkt@{t}", kkt <= ORACLE_TOL / alpha,
                       f"violation {kkt:.2e}, bound {ORACLE_TOL / alpha:.2e}"))

    total = out.regret.total()
    checks.append(("regret-finite", math.isfinite(total) and len(out.solutions) == T + 1,
                   f"dynamic regret {total:.6g} over {len(out.solutions)} rounds"))
    return checks
