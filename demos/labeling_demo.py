"""Label every grasp candidate of one mesh and inspect the results.

Command-line equivalent (after saving the mesh to cylinder.obj):

    graspscore label cylinder.obj --object-id cyl --out labels.csv
"""

import os
import tempfile

import numpy as np

from graspscore import (
    MetricWeights,
    PipelineConfig,
    label_mesh,
    read_labels,
    with_surface_samples,
    write_labels,
)
from graspscore.primitives import make_cylinder


def bar_chart(title, counts):
    peak = max(max(counts), 1)
    print(title)
    for i, count in enumerate(counts):
        bar = "#" * round(40 * count / peak)
        print(f"  {i / 10:.1f}-{(i + 1) / 10:.1f} {count:6d} {bar}")


if __name__ == "__main__":
    mesh = with_surface_samples(make_cylinder(0.02, 0.06, 48), seed=0)
    config = PipelineConfig(n_seeds=24, n_views=24, n_rotations=6)
    table, summary = label_mesh(mesh, "cyl", config)
    print(f"{summary.n_enumerated} grid cells, {summary.n_skipped} skipped,"
          f" {summary.n_labeled} labeled\n")

    bar_chart("force-closure score", summary.closure_histogram)
    bar_chart("hybrid score", summary.hybrid_histogram)

    # One row per grasp; columns follow the label file (LABEL_COLUMNS).
    best = int(np.argmax(table.column("s_hybrid")))
    s_hybrid, s_t, s_f, s_g, s_c = (table.column(c)[best] for c in ("s_hybrid", "s_t", "s_f", "s_g", "s_c"))
    print(f"\nbest grasp: hybrid {s_hybrid:.4f}"
          f" = 0.7*{s_t:.2f} + 0.2*{s_f:.4f} + 0.05*{s_g:.4f} + 0.05*{s_c:.4f}")
    print(f"  at {np.round(table.translations[best] * 100, 2)} cm,"
          f" width {table.column('width')[best] * 100:.2f} cm,"
          f" depth {table.column('depth')[best] * 100:.1f} cm")

    # Round trip through the CSV schema, then rescore the same raw
    # components under closure-only weights (the `rescore` subcommand).
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "labels.csv")
        write_labels(path, table)
        reread = read_labels(path)
        print(f"\nwrote {os.path.getsize(path)} bytes, reread {len(reread)} records")

    closure_only = table.rescored(MetricWeights(1.0, 0.0, 0.0, 0.0))
    changed = int(np.count_nonzero(closure_only.column("s_hybrid") != table.column("s_hybrid")))
    print(f"closure-only reweighting changes {changed}/{len(table)} hybrid scores")
