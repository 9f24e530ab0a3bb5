"""Analytical performance model of the accelerator's layer execution.

Per-layer cycle decomposition is total = prime + compute + requant with

    prime   = c_out * n_batches * c_in * 7
    compute = c_out * n_batches * c_in * K
    requant = n_outputs * 6

where n_batches = ceil(w_in / 6).  The published per-layer table reconciles
with 6 cycles per pooled output (counting batch-padding overhang positions),
which is what both sim paths count, while the accompanying formula text
states 9 cycles per output.  One report carries both: its cycles count 6 per
output, and ``formula_cycles`` adds the formula text's 3 more per output.
Every per-layer figure derives from the counted prime, compute and requant
clocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from .errors import ConfigError
from .qnn import LayerSpec, NetworkSpec, PoolMode, check_positive

PE_COUNT = 6          # systolic lanes, one spatial batch per pass
PRIME_CYCLES = PE_COUNT + 1   # a group's bias clock, then one per lane
REQUANT_CYCLES_TABLE = 6    # 4 serial-multiplier stages + 2 overhead
REQUANT_CYCLES_FORMULA = 9  # 6 multiplier + 3 FSM/pack per the formula text

DEFAULT_CLOCK_HZ = 24_000_000
DEFAULT_POWER_MW = 8.55


@dataclass(frozen=True)
class LayerCycles:
    """One layer's counted clocks; every other figure derives from them.
    Frozen, because a run hands out the records of its plan."""
    prime: int
    compute: int
    requant: int
    n_batches: int

    @property
    def n_outputs(self) -> int:
        """Pooled outputs over all batches, padding positions included."""
        return self.requant // REQUANT_CYCLES_TABLE

    @property
    def array_eff(self) -> float:
        """Fraction of array cycles doing arithmetic: K / (K + 7)."""
        return self.compute / (self.prime + self.compute)

    @property
    def total(self) -> int:
        return self.prime + self.compute + self.requant

    @property
    def sys_eff(self) -> float:
        """Useful compute relative to total layer time."""
        return self.compute / self.total


def pooled_outputs(layer: LayerSpec, w_in: int, n_batches: int) -> int:
    """Requantized outputs per layer, counting batch-padding overhang."""
    if layer.pool_mode == PoolMode.MAXPOOL2:
        return layer.c_out * n_batches * (PE_COUNT // 2)
    if layer.pool_mode == PoolMode.GLOBAL_AVG:
        # GAP collapses each channel to one value
        return layer.c_out
    return layer.c_out * w_in


def layer_cycles(layer: LayerSpec, w_in: int) -> LayerCycles:
    if w_in < 1:
        raise ConfigError("input length must be >= 1")
    n_batches = -(-w_in // PE_COUNT)
    prime = layer.c_out * n_batches * layer.c_in * PRIME_CYCLES
    compute = layer.c_out * n_batches * layer.c_in * layer.kernel
    requant = pooled_outputs(layer, w_in, n_batches) * REQUANT_CYCLES_TABLE
    return LayerCycles(prime, compute, requant, n_batches)


@dataclass
class CycleReport:
    layers: list[LayerCycles]
    clock_hz: float
    specs: list[LayerSpec]
    avg_power_mw: float | None = None
    measured_latency_s: float | None = None
    total_prime: int = field(init=False)
    total_compute: int = field(init=False)
    total_requant: int = field(init=False)

    def __post_init__(self):
        self.total_prime = sum(l.prime for l in self.layers)
        self.total_compute = sum(l.compute for l in self.layers)
        self.total_requant = sum(l.requant for l in self.layers)

    @property
    def total_cycles(self) -> int:
        return self.total_prime + self.total_compute + self.total_requant

    @property
    def latency_s(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def formula_cycles(self) -> int:
        """The total at the formula text's 9 requant cycles per output."""
        return self.total_cycles + (REQUANT_CYCLES_FORMULA - REQUANT_CYCLES_TABLE) \
            * sum(l.n_outputs for l in self.layers)

    @property
    def formula_latency_s(self) -> float:
        return self.formula_cycles / self.clock_hz

    @property
    def fps(self) -> float:
        return self.clock_hz / self.total_cycles

    @property
    def total_macs(self) -> int:
        # every compute cycle drives all six lanes
        return PE_COUNT * self.total_compute

    @property
    def throughput_latency_s(self) -> float:
        """Latency used for throughput: the measured one when supplied."""
        if self.measured_latency_s is None:
            return self.latency_s
        return self.measured_latency_s

    @property
    def mmacs_per_s(self) -> float:
        return self.total_macs / self.throughput_latency_s / 1e6

    @property
    def mops_per_s(self) -> float:
        return 2.0 * self.mmacs_per_s

    @property
    def energy_uj(self) -> float | None:
        if self.avg_power_mw is None:
            return None
        return self.avg_power_mw * self.throughput_latency_s * 1e3

    def to_dict(self) -> dict:
        return {
            "clock_hz": self.clock_hz,
            "layers": [asdict(l) | {"n_outputs": l.n_outputs, "array_eff": l.array_eff,
                                    "sys_eff": l.sys_eff, "total": l.total}
                       for l in self.layers],
            "totals": {
                "prime": self.total_prime,
                "compute": self.total_compute,
                "requant": self.total_requant,
                "cycles": self.total_cycles,
            },
            "latency_s": self.latency_s,
            "formula_cycles": self.formula_cycles,
            "formula_latency_s": self.formula_latency_s,
            "fps": self.fps,
            "total_macs": self.total_macs,
            "measured_latency_s": self.measured_latency_s,
            "mmacs_per_s": self.mmacs_per_s,
            "mops_per_s": self.mops_per_s,
            "avg_power_mw": self.avg_power_mw,
            "energy_uj": self.energy_uj,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        """Aligned table mirroring the per-layer cycle breakdown."""
        header = (f"{'Layer':<6}{'Cin->Cout':>11}{'K':>4}{'Prime':>12}"
                  f"{'Compute':>12}{'Requant':>10}{'ArrayEff':>10}{'SysEff':>9}")
        lines = [header, "-" * len(header)]
        for i, (spec, lc) in enumerate(zip(self.specs, self.layers)):
            chans = f"{spec.c_in}->{spec.c_out}"
            lines.append(
                f"L{i:<5}{chans:>11}{spec.kernel:>4}{lc.prime:>12,}{lc.compute:>12,}"
                f"{lc.requant:>10,}{lc.array_eff:>9.1%}{lc.sys_eff:>9.1%}")
        lines.append("-" * len(header))
        lines.append(f"{'Total':<21}{self.total_prime:>12,}{self.total_compute:>12,}"
                     f"{self.total_requant:>10,}")
        lines.append(f"Cycles {self.total_cycles:,} | latency {self.latency_s * 1e3:.2f} ms"
                     f" | {self.fps:.2f} FPS @ {self.clock_hz / 1e6:.1f} MHz")
        lines.append(f"Formula text, {REQUANT_CYCLES_FORMULA} requant cycles per output: "
                     f"{self.formula_cycles:,} cycles | latency "
                     f"{self.formula_latency_s * 1e3:.2f} ms")
        lines.append(f"Throughput {self.mmacs_per_s:.1f} MMAC/s ({self.mops_per_s:.1f} MOps/s)"
                     + (f" | energy {self.energy_uj:.1f} uJ" if self.energy_uj else ""))
        return "\n".join(lines)


def network_report(net: NetworkSpec,
                   clock_hz: float = DEFAULT_CLOCK_HZ,
                   avg_power_mw: float | None = DEFAULT_POWER_MW,
                   measured_latency_s: float | None = None) -> CycleReport:
    """The cycle report of `net`; the clock, and the power and measured
    latency when given, must be finite and positive, and so must every figure
    derived from them (ConfigError)."""
    for name, value in (("clock_hz", clock_hz), ("avg_power_mw", avg_power_mw),
                        ("measured_latency_s", measured_latency_s)):
        if value is not None:
            check_positive(name, value)
    layers = [layer_cycles(layer, w_in)
              for layer, w_in in zip(net.layers, net.layer_input_lengths())]
    report = CycleReport(layers=layers, clock_hz=clock_hz,
                         specs=list(net.layers), avg_power_mw=avg_power_mw,
                         measured_latency_s=measured_latency_s)
    # a finite input can still overflow a quotient or product to inf, which
    # JSON cannot carry, or underflow one to 0
    for name in ("latency_s", "formula_latency_s", "fps", "mmacs_per_s",
                 "mops_per_s", "energy_uj"):
        if (value := getattr(report, name)) is not None:
            check_positive(f"derived {name}", value)
    return report


def peak_mmacs(clock_hz: float = DEFAULT_CLOCK_HZ) -> float:
    """Theoretical peak: all six lanes MAC every cycle."""
    return PE_COUNT * clock_hz / 1e6
