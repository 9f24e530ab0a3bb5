"""Byte-identity of the integer-only outputs.

Each value is the SHA-256 of an output that no code change may move: the
`analyze` report, the SANN bytes of seeded random models, the golden logits
and ReLU snapshots of those models, the per-clock trace stream of the net
with every layer kind, and the wire bytes of a fixed set of frames.  Only
integer-only artefacts are pinned; `build_reference_model` goes through float
BLAS, whose last bits are not portable across machines.
"""

import hashlib
import random

import numpy as np
import pytest

from conftest import every_kind_net
from scgaccel.cli import main
from scgaccel.errors import StateError
from scgaccel.link import Command, Frame, encode_frame
from scgaccel.modeltools import random_input, random_model
from scgaccel.qnn import NetworkSpec, infer_window
from scgaccel.sim import SimMachine


def _sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


# "MODEL" stands for the SANN file of the seed-1 random model, and
# "EVERY_KIND" for that of the seed-1 random model on every_kind_net, which
# runs at 128 samples
ANALYZE = {
    (): "eff9a0ee4e4c82184376eacdc864bbdc4463b45d055c58202ccd3e728e9ca6d6",
    ("--json",):
        "43aed6648a2991a64f2367ef1bc86745d30548938cdd940751d88d29a3aafa80",
    # a packed model on the default topology reports as the default does
    ("--model", "MODEL"):
        "eff9a0ee4e4c82184376eacdc864bbdc4463b45d055c58202ccd3e728e9ca6d6",
    ("--model", "MODEL", "--json"):
        "43aed6648a2991a64f2367ef1bc86745d30548938cdd940751d88d29a3aafa80",
    ("--model", "EVERY_KIND", "--input-length", "128"):
        "340ebb7b4a7f13db4ca98ca16108bcc78a96776a978937104ce17d497cd3e24d",
    ("--model", "EVERY_KIND", "--input-length", "128", "--json"):
        "dae40abee86645aa3c5159fd29dbdf3728653809f7b3ae83c4d9c9cb4deb9b91",
    ("--clock-hz", "48e6", "--power-mw", "10", "--measured-latency-s", "0.05",
     "--json"):
        "6431aea9f1040e40a00eff6bb3d40dd1666b902abbff5b8b6ff4df022aab460d",
}

SANN = {
    1: "ed07a17f5a71bfd9a6c17b33b98279dd714d26ed7fbcea70df471699b24ea408",
    4242: "d4fc6420edd03a811e088b4ba6a9df2c8fd87415f9a05319a506330a4d61c371",
    7: "5e77677475ecb17562a850f9403e86243de8e0167d97ffabdb346e777195f65d",
}

# logits, then every ReLU snapshot, of 16 random_input windows drawn after
# the random model from the same generator
GOLDEN = {
    1: "c9bfa54c0cd9e9bcb5659f64a0ba41ab117b5e24cc99a2a3ede50aeb38012078",
    4242: "210ca0c1fe86be4c52b16ceac94f89e49214eeceb0b0fd98d135e68a9bd0d373",
    7: "359b5ed2421edbcd51a40142f738fa2660f364fafed5632d694c278fadd32672",
}

# 10,418 events
EVERY_KIND_TRACE = \
    "316fcb67f1931782c6d66a344925af5341e9d97e6b0c77229e30e55e7a581447"


# 567 frames: encode_frame of every command byte below, at every seq and
# payload length.  The lengths straddle crc8's switch from the look-up loop
# to the masks (a 128-byte body is a 124-byte payload) and the 4 KB cap.
WIRE_COMMANDS = [*Command, 0x7F]
WIRE_SEQS = [0, 1, 255]
WIRE_LENGTHS = [0, 1, 63, 64, *range(118, 131), 512, 513, 4095, 4096]
WIRE_FRAMES = \
    "35e52b5d30bfec88fb0dcdc54c6b3f9bc6a2bf83920f80b1b1f78b45e5dfa427"


def _model_files(tmp_path) -> dict[str, str]:
    files = {}
    for name, net in (("MODEL", NetworkSpec.default()),
                      ("EVERY_KIND", every_kind_net())):
        path = tmp_path / name
        path.write_bytes(random_model(net, np.random.default_rng(1)).to_bytes())
        files[name] = str(path)
    return files


def _flags_id(flags: tuple[str, ...]) -> str:
    """A test id from the flags alone, so that no entry's id depends on
    where it sits in ANALYZE."""
    return "_".join(flag.lstrip("-") for flag in flags) or "default"


@pytest.mark.parametrize("flags", list(ANALYZE), ids=_flags_id)
def test_analyze_output(flags, tmp_path, capsys):
    files = _model_files(tmp_path)
    assert main(["analyze", *(files.get(f, f) for f in flags)]) == 0
    assert _sha(capsys.readouterr().out) == ANALYZE[flags]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_analyze_refuses_a_length_the_model_cannot_run(json_flag, tmp_path, capsys):
    # at 256 samples the default topology leaves its GAP layer 32 of its 64
    files = _model_files(tmp_path)
    assert main(["analyze", "--model", files["MODEL"], "--input-length", "256",
                 *json_flag]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: GAP unit is hardwired for length 64, got 32\n"


@pytest.mark.parametrize("seed", list(SANN))
def test_random_model_bytes(seed):
    model = random_model(NetworkSpec.default(), np.random.default_rng(seed))
    assert _sha(model.to_bytes()) == SANN[seed]


@pytest.mark.parametrize("seed", list(GOLDEN))
def test_golden_outputs(seed):
    rng = np.random.default_rng(seed)
    net = NetworkSpec.default()
    ws = random_model(net, rng).to_weight_set()
    digest = hashlib.sha256()
    for _ in range(16):
        logits, snapshots = infer_window(net, ws, random_input(rng, net))
        digest.update(logits.values.tobytes())
        for snap in snapshots:
            digest.update(snap.data.tobytes())
    assert digest.hexdigest() == GOLDEN[seed]


def test_every_kind_trace_stream():
    rng = np.random.default_rng(4242)
    net = every_kind_net()
    model = random_model(net, rng)
    x = random_input(rng, net)
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    machine.start()
    lines = []
    while True:
        try:
            lines.append(machine.step().to_json())
        except StateError:
            break
    assert _sha("\n".join(lines)) == EVERY_KIND_TRACE


def test_wire_bytes():
    digest = hashlib.sha256()
    for command in WIRE_COMMANDS:
        for seq in WIRE_SEQS:
            for length in WIRE_LENGTHS:
                payload = random.Random(length).randbytes(length)
                digest.update(encode_frame(Frame(command, seq, payload)))
    assert digest.hexdigest() == WIRE_FRAMES
