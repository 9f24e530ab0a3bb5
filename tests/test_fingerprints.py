"""Byte-identity of the integer-only outputs.

Each value is the SHA-256 of an output that no code change may move: the
`analyze` report, the SANN bytes of seeded random models, the golden logits
and ReLU snapshots of those models, and the per-clock trace stream of the net
with every layer kind.  Only integer-only artefacts
are pinned; `build_reference_model` goes through float BLAS, whose last bits
are not portable across machines.
"""

import hashlib

import numpy as np
import pytest

from scgaccel.cli import main
from scgaccel.errors import StateError
from scgaccel.modeltools import random_input, random_model
from scgaccel.qnn import NetworkSpec, infer_window
from scgaccel.sim import SimMachine
from test_sim import every_kind_net


def _sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


# "MODEL" stands for the SANN file of the seed-1 random model
ANALYZE = {
    (): "6d60f076075b0b7138ef9978b57045b01f0a2fe115ff52181f819caf7dc99800",
    ("--json",):
        "a683097f0cce22910d4c3266792dddb3a3fa1c5d44b1197c6a487bba2f320ff9",
    ("--requant-convention", "formula"):
        "a7b37d89e2b93b3768b7fe2ecacae4eb31d7b12856593820cb675bbd4cfcc24e",
    ("--requant-convention", "formula", "--json"):
        "ad83a88919ba1651404286a19aea73db1874b904c7d3690224e656eab92ef1cb",
    ("--model", "MODEL", "--input-length", "256"):
        "4152ade549891570693daad0fd2e01125f9631cc92d7c7d442b9fb1e82a8caf2",
    ("--model", "MODEL", "--input-length", "256", "--json"):
        "023c4e6169905939249d2537eed0885f6654762cca6d8313e4abec536c74aaa8",
    ("--clock-hz", "48e6", "--power-mw", "10", "--measured-latency-s", "0.05",
     "--json"):
        "6c253d4f3240fdb49fb235895ca36214f64cbfacc663a728bab1d2e8ab30d856",
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


@pytest.mark.parametrize("flags", list(ANALYZE))
def test_analyze_output(flags, tmp_path, capsys):
    model = tmp_path / "model.bin"
    model.write_bytes(random_model(NetworkSpec.default(),
                                   np.random.default_rng(1)).to_bytes())
    assert main(["analyze", *(str(model) if f == "MODEL" else f
                              for f in flags)]) == 0
    assert _sha(capsys.readouterr().out) == ANALYZE[flags]


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
