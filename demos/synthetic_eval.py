"""End-to-end classification pipeline on the synthetic dataset.

Builds a quantized model without any gradient training -- a fixed filter
bank matched to the two burst frequencies plus a closed-form nearest-class-
mean head calibrated on a handful of windows -- then evaluates it with the
full metrics stack.
"""

import numpy as np

from scgaccel.metrics import CLASS_NAMES, NUM_CLASSES, evaluate, synth_windows
from scgaccel.pipeline import build_reference_model, golden_predict

print("=== Dataset ===")
calib = synth_windows(192, seed=11)
test = synth_windows(300, seed=99)
counts = np.bincount(test.labels, minlength=NUM_CLASSES)
for name, count in zip(CLASS_NAMES, counts):
    print(f"  {name:<10} {count} test windows")

print("\n=== Constructed model (no training) ===")
model, logit_scale = build_reference_model(calib)
n_params = sum(s.c_out * s.c_in * s.kernel + s.c_out for s in model.layers)
print(f"  5 layers, {n_params:,} parameters, "
      f"{model.weight_words.size:,} packed weight words")
print(f"  logit scale for post-hoc softmax: {logit_scale:.4g}")

print("\n=== Evaluation through the integer-only golden model ===")
logits, probs, preds = golden_predict(model, test.windows, logit_scale)
summary = evaluate(test.labels, probs=probs)
print(f"  accuracy  : {summary.accuracy:.2%}")
print(f"  macro F1  : {summary.macro_f1:.4f}")
print(f"  ECE       : {summary.ece:.4f}")
for cls in (1, 2):
    print(f"  AP {CLASS_NAMES[cls]:<10}: {summary.average_precision[cls]:.4f}")
print("  confusion (rows = truth):")
for name, row in zip(CLASS_NAMES, summary.confusion):
    print(f"    {name:<10} {row.tolist()}")
