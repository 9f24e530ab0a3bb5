"""Software twin of an ultra-low-power FPGA systolic-array CNN accelerator
for seismocardiography phase classification.

Subpackages:

* ``qnn``        -- bit-exact integer-only golden inference model
* ``modeltools`` -- folding, quantization, weight binary format, SRAM packing
* ``cyclemodel`` -- analytical per-layer cycle and throughput model
* ``sim``        -- cycle-accurate microarchitecture simulator
* ``link``       -- packet protocol, device emulator, host client
* ``metrics``    -- synthetic dataset and classification metrics
* ``pipeline``   -- end-to-end glue (quantize windows, golden prediction,
  reference model)
"""

from .qnn import (Activation, LayerKind, LayerSpec, Logits, NetworkSpec,
                  PoolMode, QuantTensor, WeightSet, infer_window,
                  zscore_quantize)
from .modeltools import PackedModel, random_model
from .cyclemodel import CycleReport, network_report
from .sim import SimMachine, mul64signed
from .link import DeviceEmulator, HostClient

__all__ = [
    "Activation", "LayerKind", "LayerSpec", "Logits", "NetworkSpec",
    "PoolMode", "QuantTensor", "WeightSet", "infer_window", "zscore_quantize",
    "PackedModel", "random_model", "CycleReport", "network_report",
    "SimMachine", "mul64signed", "DeviceEmulator", "HostClient",
]

__version__ = "0.1.0"
