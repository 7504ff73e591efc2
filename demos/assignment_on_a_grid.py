"""Watch the metric-driven assigner pick anchors on a small grid.

Two overlapping instances compete for anchors; the printout shows which
anchors each instance claims, the soft labels, and how a conflict is
settled by IoU. Run:  python3 demos/assignment_on_a_grid.py
"""

import numpy as np

from aligndet.assignment import AnchorGrid, assign, center_sampling_assign, decode_boxes
from aligndet.geometry import Box
from aligndet.scenes import SplitMix64

grid = AnchorGrid(height=6, width=6, stride=8)
rng = SplitMix64(7)

# synthetic "predictions": mildly noisy scores, distances around one cell
p_align = 0.2 + 0.6 * rng.uniform((6, 6, 2))
b_align = 0.8 + 0.8 * rng.uniform((6, 6, 4))

instances = [
    (Box(4.0, 4.0, 30.0, 30.0), 0),
    (Box(20.0, 16.0, 46.0, 44.0), 1),
]

result = assign(instances, grid, p_align, b_align, m=5)
scores = p_align.reshape(grid.count, -1)
print(f"{result.num_positive} positive anchors out of {grid.count}")
for n, (box, cls) in enumerate(instances):
    anchors = result.positives_of(n)
    print(f"\ninstance {n} (class {cls}, box {box.x1:.0f},{box.y1:.0f},{box.x2:.0f},{box.y2:.0f}):")
    for a in anchors:
        print(f"  anchor {a:2d}: s={scores[a, cls]:.3f} u={result.u[a]:.3f} "
              f"t={result.t[a]:.4f} t_hat={result.t_hat[a]:.4f}")
    if anchors.size:
        print(f"  max t_hat {result.t_hat[anchors].max():.4f} == max u "
              f"{result.u[anchors].max():.4f}")

# both instances cover the anchors near (24, 24); show who won them
xs, ys = grid.points()
shared = [a for a in range(grid.count)
          if instances[0][0].x1 < xs[a] < instances[0][0].x2
          and instances[0][0].y1 < ys[a] < instances[0][0].y2
          and instances[1][0].x1 < xs[a] < instances[1][0].x2
          and instances[1][0].y1 < ys[a] < instances[1][0].y2]
print(f"\nanchors inside both boxes: {shared}")
for a in shared:
    owner = result.instance_index[a]
    print(f"  anchor {a}: claimed by instance {owner}" if owner >= 0
          else f"  anchor {a}: unassigned")

print("\nfor contrast, plain center sampling marks every anchor in the")
print("shrunken box as an equally weighted positive:")
cs = center_sampling_assign(instances, grid)
print(f"  {cs.num_positive} positives, all with t_hat = "
      f"{np.unique(cs.t_hat[cs.is_positive])}")
