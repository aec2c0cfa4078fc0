"""Golden pin: sha256 of every preset's records and summary at horizon 200.

A refactor of the engine, the transport or the writers must reproduce these
bytes exactly. A deliberate change of trajectories or file format re-pins the
values below, and the commit that does so adds a CHANGES.md line saying why.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from dpgames import cli, engine

GOLDEN = {
    # preset: (tabular sha256, object-lines sha256, summary sha256)
    "fig2-baseline": (
        "d3a43ee5871526ca2d2210b8a02407354cbdf383a8ee99a584d83588222b9329",
        "3bfa973984b5e88a99bba496b9252ae337a393782de325828f4dc0339af38691",
        "978df712bcc6c30f007eb3cb0f13edd1b747e44880efae36a8f89e100e4cf63a"),
    "fig3-high-lr": (
        "07987480871a962828e2e5db4972ce40245597e8498a50dc4497bc6974442208",
        "906830a570df3998706ddcc4d60b62cd5fde030884dbadc017e719755180a2fc",
        "53cbf1409d5ecf4466164f4fc9b3ca04fda2dd294f5c69de0837868b1c471e2c"),
    "fig4-tight-privacy": (
        "b0507baf28c570c1a268d285cb5dedf8f37f4ef7343dd0af1da8bdb347644195",
        "a63270350049ec5ef376b3e3a536e2860c51513570ff94c242c96e682f26a972",
        "3af229dad7928406226117a9685bd8d03b3e31830645096ede241a6f60064f18"),
    "fig5-fixed-delay": (
        "4fe4be12888ea4c63c2b78ef5171744ad5d0f05d8a9bf670d9c89c0d06e2a750",
        "02b711eff341c35a072d7e8b3eab4b7defed6f0aea54b926948efbfc64c56fb3",
        "512043c29051fe54f14ba35ff6d1c661e730eba09e9c333c1a7aa00def1c799b"),
    "fig6-random-delays": (
        "3c19e256f95bb09f21666fd60d69fb5ff7aa46378120687d81110ee8a317472d",
        "ee5bb87a03e97ffa180417c0f580821f8efc28209680f16498bd0c1980d30581",
        "ced869fdef7881e367bc0578585734baf3c8cb93e349cb283a06312444789f4a"),
    "fig7-random-delays-private": (
        "64a92d4a79e79b4f940694ffce96f41070cd23e802a76166d752d98ab5f5bcfa",
        "834778b38a0aae9c2c1659e6e815f083db2b80a42e617ddc08e988636a678b12",
        "904b466933c38e94b4258f41c70b16591bcc29a3f9c9137cccc146885d8f177a"),
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
