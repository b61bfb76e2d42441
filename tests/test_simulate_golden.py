"""Golden bytes of `itdloc simulate`: spikes.csv, traces.csv and events.txt
of a few fixed runs hash to pinned digests. The reference property bounds
membranes at 1e-12 V; these digests pin every printed digit, so a change
to the stepper's float operations or to the CSV writers shows here. Traced
inputs alone leave the chains and detectors to the event engine's tables
(INPUT_TRACES), a traced chain neuron or detector steps the network
(TRACES): both give the same spikes and events, which the whole network
stepped gave before the tables took over."""

import hashlib
import json

import pytest

from itdloc import cli

# both inputs, a left-chain neuron and a detector that fires at -80 us
TRACES = "0,1,40,120"
INPUT_TRACES = "0,1"

CASES = {
    "resistive": ({}, None),
    "resistive-seeded": ({}, 7),
    "trigger": ({"injection": {"mode": "trigger"}}, None),
    "trigger-seeded": ({"injection": {"mode": "trigger"}}, 7),
    "quantized": ({"network": {"w_lsb": 2e-8}}, None),
    "mirrored": ({"network": {"left_first_index": False}}, None),
}

# sha256 of spikes.csv, traces.csv and events.txt
GOLDEN = {
    "mirrored": (
        "a7a7bbdc864fb581156ef284aacf118b67330387c7a0aa2cf1f4b30a6daa5dcf",
        "46ad9be65de9aa6f0ccf19be4a5f0271314ded89869e24d3a7924504b7036374",
        "0f0c1c87f5314f1471efca9a31b4cce3392f9fe84280edc7d5aaab5360e3a6ab",
    ),
    "quantized": (
        "f3efd4b6be8ab2dd5e13933195fc00ea6c3401eace43dfd81bfbdb57fdc388f8",
        "c5a4d053409a2ddb70981d5c46f05ac7c4ec209d85133a8e4a04029bf0a05252",
        "3872a60421e5901ceb3b1c60727f463cb3bedf9d9d2941064368c687774a7c12",
    ),
    "resistive": (
        "28cc11a6523557f28f37f30cedc8cb28f1e1f9bc58353703e3fd4ebb11a45a12",
        "bcb635f42b5a835b555f2171cde12f3b62781dce819733873a2d0f35c5476281",
        "3872a60421e5901ceb3b1c60727f463cb3bedf9d9d2941064368c687774a7c12",
    ),
    "resistive-seeded": (
        "9ddedf023c88030b46311edd0a6295b86f9926787c18580ae2f8a174d02f46c3",
        "2db07dff0d99e0b6783f09eaaff8b78c166ae22a9a5dc09eec05c6e583b23175",
        "20f4c86f66a9e22c5628d2853ba8ff160efbe6cb956445cc1006f7d0d2078d30",
    ),
    "trigger": (
        "2596a1910aadac317355005ab62188193979e5f60a41bd8f15622846795e36e7",
        "18adf1f4f12a285de84ca94b91a15c3868ba78d6effecdfc499873ad903302e6",
        "3872a60421e5901ceb3b1c60727f463cb3bedf9d9d2941064368c687774a7c12",
    ),
    "trigger-seeded": (
        "eeba3a119b40330ab99d10c212b407a134cfd58abfff9ba1f96cf17e4ee1b46a",
        "c7926ba88bd58970f15cc97bd07f74b433d1db45b5bd98e09ad6f43244ae2370",
        "20f4c86f66a9e22c5628d2853ba8ff160efbe6cb956445cc1006f7d0d2078d30",
    ),
}


# sha256 of traces.csv with INPUT_TRACES, computed on the whole network
# stepped; spikes.csv and events.txt are GOLDEN's
GOLDEN_INPUT_TRACES = {
    "mirrored": "dbf30ff7eda47f149cbbaad782887423304e0f3a837f4a102728d7c6c6735329",
    "quantized": "dbf30ff7eda47f149cbbaad782887423304e0f3a837f4a102728d7c6c6735329",
    "resistive": "dbf30ff7eda47f149cbbaad782887423304e0f3a837f4a102728d7c6c6735329",
    "resistive-seeded":
        "dae31fbcfb2702ceda26435b9a896b08cf9298c591a1ac4aa4c2895ba2937070",
    "trigger": "f08b7b065775553c0cdb23384cd1e919930b0f628bad21c5ccf8ee2d9aadd01c",
    "trigger-seeded":
        "01eea985f7d34e649ab29a71a5d96237ba35156a179f449df50e0792344d304c",
}


def _simulate(case, traces, tmp_path, capsys) -> tuple:
    """The digests of one run's spikes.csv, traces.csv and events.txt."""
    doc, seed = CASES[case]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sim"
    argv = ["simulate", "--config", str(path), "--itd=-80", "--traces", traces,
            "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("spikes.csv", "traces.csv", "events.txt"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_bytes(case, tmp_path, capsys):
    assert _simulate(case, TRACES, tmp_path, capsys) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_bytes_tracing_the_inputs(case, tmp_path, capsys):
    spikes, _, events = GOLDEN[case]
    assert _simulate(case, INPUT_TRACES, tmp_path, capsys) == (
        spikes, GOLDEN_INPUT_TRACES[case], events)
