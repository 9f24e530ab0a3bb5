"""Walk through the analytical cycle model for the default network.

Reproduces the per-layer prime/compute/requant breakdown, then shows how the
derived latency, throughput, and energy figures follow from it, and what the
formula text's 9 requant cycles per output, against the table's 6, change.
"""

from scgaccel.cyclemodel import (REQUANT_CYCLES_FORMULA, REQUANT_CYCLES_TABLE,
                                 network_report, peak_mmacs)
from scgaccel.qnn import NetworkSpec

net = NetworkSpec.default()

print("=== Per-layer cycle breakdown (6 requant cycles per output) ===")
report = network_report(net)
print(report.to_text())
print()

print("=== Derived figures with the measured 95.5 ms latency ===")
measured = network_report(net, measured_latency_s=0.0955)
print(f"MACs per inference : {measured.total_macs:,} "
      f"(6 lanes x {measured.total_compute:,} compute cycles)")
print(f"Throughput         : {measured.mmacs_per_s:.1f} MMAC/s "
      f"= {measured.mops_per_s:.1f} MOps/s")
print(f"Peak (all lanes)   : {peak_mmacs():.0f} MMAC/s at 24 MHz")
print(f"Utilization        : {measured.mmacs_per_s / peak_mmacs():.1%}")
print(f"Energy/inference   : {measured.energy_uj:.1f} uJ at "
      f"{measured.avg_power_mw} mW")
print()

print("=== Requant accounting conventions ===")
print(f"table, 6 per pooled output       : {report.total_cycles:>10,} cycles, "
      f"{report.latency_s * 1e3:.2f} ms")
print(f"formula text, 9 per pooled output: {report.formula_cycles:>10,} cycles, "
      f"{report.formula_latency_s * 1e3:.2f} ms")
print(f"difference on the total: {report.formula_cycles - report.total_cycles:,} "
      f"cycles ({(report.formula_cycles / report.total_cycles - 1):.2%})")
l2 = report.layers[2]
l2_formula_total = l2.total + (REQUANT_CYCLES_FORMULA
                               - REQUANT_CYCLES_TABLE) * l2.n_outputs
print(f"layer 2 system efficiency at 9 per output: {l2.compute:,} / "
      f"{l2_formula_total:,} = {l2.compute / l2_formula_total:.2%}")
print()

print("=== Clock scaling (cycle counts are frequency independent) ===")
for mhz in (12, 24, 48):
    r = network_report(net, clock_hz=mhz * 1e6)
    print(f"{mhz:>3} MHz: {r.latency_s * 1e3:7.2f} ms  {r.fps:6.2f} FPS")
