"""Walkthrough: the synthetic line-detection comparison.

Dataset: 95 images with one horizontal line, 5 with one vertical line.
A 23-parameter model (two 3x3 filters, global max pool, dense head) is
trained twice from one initialization: plain SGDM vs the boosted,
cluster-aggregating variant. Full-batch updates make the 5 vertical
samples nearly invisible to the plain run; the boosted run keeps them.

Run: python3 demos/04_line_detection.py [OUTPUT_CSV]

The full trajectory goes to OUTPUT_CSV, or into a fresh temporary
directory when no path is given.
"""

import sys
import tempfile
from pathlib import Path

from gradqueue.experiments import ExperimentConfig, run_train_lines

if len(sys.argv) > 1:
    output = Path(sys.argv[1])
else:
    output = Path(tempfile.mkdtemp(prefix="gradqueue-demo-")) / "line_detection.csv"

cfg = ExperimentConfig(
    learning_rate=0.05,
    beta=0.9,
    rho=3.0,
    capacity=3,
    steps=200,
    p=95,
    q=5,
    batch_size=100,   # full batch
    optimal_batch=50,  # choose_k gives 2 clusters
    seed=0,
    output=str(output),
)

result = run_train_lines(cfg)
print(result.summary)
print()

header = ["step", "loss_sgdm", "loss_gq", "align_f2_sgdm", "align_f2_gq"]
print("  ".join(f"{h:>13s}" for h in header))
for row in result.rows[::25] + [result.rows[-1]]:
    step, loss_s, loss_g, _, _, af2_s, af2_g = row
    print(f"{step:13d}  {loss_s:13.5f}  {loss_g:13.5f}  {af2_s:13.4f}  {af2_g:13.4f}")

print(f"\nfull trajectory written to {output}")
print("(columns: step, loss_sgdm, loss_gq, align_f1_sgdm, align_f1_gq,")
print(" align_f2_sgdm, align_f2_gq)")
