"""Golden pin: sha256 of every preset's records and summary at horizon 200.

A refactor of the engine, the transport or the writers must reproduce these
bytes exactly. A deliberate change of trajectories or file format re-pins the
values below, and the commit that does so adds a CHANGES.md line saying why.
The rows of the five presets with noise or random delays were re-pinned when
draws moved to one keyed block per (purpose, round), and again when each
block came from a Philox stream keyed by (seed, purpose) with the round as
its counter instead of a generator seeded by (seed, purpose, round);
fig5-fixed-delay, which draws nothing, kept its row both times.
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
        "fa4aae0a3c8b4d273ee017c76536c0cab2f84d8efc0d940947a61b84f1d4d947"),
    "fig3-high-lr": (
        "08454626db7ada0173f638c0c4137f2320cd8446167ea33f5b32556826732493",
        "3ac45edc7d8dc15f3c46d99959595f5a97a69311c9bb99d01d3809a3bf400072",
        "e514ae2b632e5c49a50a7f74b4b38df498e8a528d6191835936dd2d250a02a12"),
    "fig4-tight-privacy": (
        "7d7c22dc37ede8fa0854ee74be0b48d4295365982a1a0a11e6183094b9104102",
        "38b43b55930356c046c190b147486c4607448ae430cf169ec155b88191946096",
        "1988e63b01d145c1216471980ec5625dadde08469a874f3b0c52a7e36b40bc2b"),
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
        "6511ba12ab3278f709292acd6315509c57c97f45dd6bd3e2b80ab38181185262"),
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
