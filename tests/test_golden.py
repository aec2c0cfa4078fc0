"""Golden pin: sha256 of every preset's records and summary at horizon 200.

A refactor of the engine, the transport or the writers must reproduce these
bytes exactly. A deliberate change of trajectories or file format re-pins the
values below, and the commit that does so adds a CHANGES.md line saying why.
The rows of the five presets with noise or random delays were re-pinned when
draws moved to one keyed block per (purpose, round); fig5-fixed-delay, which
draws nothing, kept its row.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from dpgames import cli, engine

GOLDEN = {
    # preset: (tabular sha256, object-lines sha256, summary sha256)
    "fig2-baseline": (
        "08ad11e7f79a6a2ec132c232fb1bb75f308879fcc7204584d5f6888e880b1200",
        "918574460cdda88f9d599a6de7859f2ad042041f81b47af94f6fbc9866ece2ee",
        "b2c646a780fc00465c942c367cf90ada16fdada737ec6829bd1a0890d71cd961"),
    "fig3-high-lr": (
        "779c1ccbebec72ff054415216bd71a23e71f9d794db0823742e90fde6b6a23c8",
        "39ef6430a63e89c7d3f6d0a720bdde5f53ee32ad83a7bb0355a1b89488c62652",
        "be18c4bb4b12aa89ee4fd4999c98648a274fea085627cc57ffaa9d4ab7c3a29d"),
    "fig4-tight-privacy": (
        "319795e84c8e15648205326d6b59ca079c0079a791d6e4d39216588862d63ecc",
        "f8cc07250865ae3a84f8cbd8c3d8a77387e4117d5829876fb51c27d28ad9f6db",
        "be5be898f8d7b733a17dbc5e33a6f732001fe8c53c2bb7c5df46c8463dbec1c7"),
    "fig5-fixed-delay": (
        "4fe4be12888ea4c63c2b78ef5171744ad5d0f05d8a9bf670d9c89c0d06e2a750",
        "02b711eff341c35a072d7e8b3eab4b7defed6f0aea54b926948efbfc64c56fb3",
        "512043c29051fe54f14ba35ff6d1c661e730eba09e9c333c1a7aa00def1c799b"),
    "fig6-random-delays": (
        "63d1a71b4d7d913fe8793647f98865b5319bfd8531aba885ab998027d99ae69b",
        "42616ef42da3abcd9d74ed33d114a5e87aa7caef6d5d79cb8968c2ec4f79b00e",
        "4d1d191909350a651818dd0ec7f717f44241457b0dbb349cb63d1e3618628814"),
    "fig7-random-delays-private": (
        "5810be8fca0e2d4f77480dcfcbf67d55de635bdd8edecfce00d1b741fc94f176",
        "2e232e44c1065e8eb4df9db9a9d467546978e036a7b48be906e11dc26475ae00",
        "fc2e40ebffde1eec1a2c5275292fccc0d95166d9305246fc919670328a91a241"),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_preset_records_and_summary_are_pinned(name, tmp_path):
    result = engine.run(replace(cli.preset(name), horizon=200))
    csv, jsonl = tmp_path / "r.csv", tmp_path / "r.jsonl"
    cli.write_records(result, csv, "tabular")
    cli.write_records(result, jsonl, "object-lines")
    summary = cli.run_summary(result)
    del summary["wall_time_s"]
    summary_sha = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert (_sha(csv), _sha(jsonl), summary_sha) == GOLDEN[name]
