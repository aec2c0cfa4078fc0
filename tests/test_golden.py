"""Golden pin: sha256 of every preset's records and summary at horizon 200.

A refactor of the engine, the transport or the writers must reproduce these
bytes exactly. A deliberate change of trajectories or file format re-pins the
values below, and the commit that does so adds a CHANGES.md line saying why.
The rows of the five presets with noise or random delays were re-pinned when
draws moved to one keyed block per (purpose, round), and again when each
block came from a Philox stream keyed by (seed, purpose) with the round as
its counter instead of a generator seeded by (seed, purpose, round);
fig5-fixed-delay, which draws nothing, kept its row both times. The
summaries of the four noised presets were re-pinned when the summary's
ledger became one entry per run instead of one row per round.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from dpgames import cli, engine

GOLDEN = {
    # preset: (tabular sha256, object-lines sha256, summary sha256)
    "fig2-baseline": (
        "5d302bdb75b480e8f6e7ce4af9d57ff26ef190adc9bf838858fa3eae2789d019",
        "501741714d45d30e8a696417bc35352d9be952274f4ce0e765bd3b23ba96c63a",
        "9ee08176f86e9e356964f91565f46cb5d41f7fbbfbba38d8cca61c123f19826a"),
    "fig3-high-lr": (
        "08454626db7ada0173f638c0c4137f2320cd8446167ea33f5b32556826732493",
        "3ac45edc7d8dc15f3c46d99959595f5a97a69311c9bb99d01d3809a3bf400072",
        "7b0a9246feb6c633bd9ba872fbc329a9145009ae6861b4ffa12fef8d6272f948"),
    "fig4-tight-privacy": (
        "7d7c22dc37ede8fa0854ee74be0b48d4295365982a1a0a11e6183094b9104102",
        "38b43b55930356c046c190b147486c4607448ae430cf169ec155b88191946096",
        "c37b74cd1c1f19213ad400fdb722fea205029599928fdfd3313b7654ed1f17f1"),
    "fig5-fixed-delay": (
        "4fe4be12888ea4c63c2b78ef5171744ad5d0f05d8a9bf670d9c89c0d06e2a750",
        "02b711eff341c35a072d7e8b3eab4b7defed6f0aea54b926948efbfc64c56fb3",
        "512043c29051fe54f14ba35ff6d1c661e730eba09e9c333c1a7aa00def1c799b"),
    "fig6-random-delays": (
        "b7780b8dddd4f16949c41b37b85e8a78dcea68fc270a0381c5dbddc70e3db53a",
        "ae9e19948a9129288d6539035c0ac7f49457c6ac85f3722d146e96db6071f7f0",
        "7676e23291c1bb9b4f107c1cea5ce75747593bcf00a77e5dbdc59bc6835e9191"),
    "fig7-random-delays-private": (
        "a27ed3fcd6ebe3e17dfb2ed24fb4894ee2ef66f4e83d82ba3d51d106af6ed11c",
        "a7220518be5ae55a8e2b1f3fbb5158422e958df672c41595bda2d674973a634c",
        "f95bf93e1192dbc76e3a2e6d11a901038cd42c2abc1ae56c5d521b409a8a0462"),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_preset_records_and_summary_are_pinned(name, tmp_path):
    result = engine.run(replace(cli.preset(name), horizon=200))
    csv, jsonl = tmp_path / "r.csv", tmp_path / "r.jsonl"
    cli.write_records(result, csv, "tabular")
    cli.write_records(result, jsonl, "object-lines")
    summary = result.summary()
    del summary["wall_time_s"]
    summary_sha = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert (_sha(csv), _sha(jsonl), summary_sha) == GOLDEN[name]
