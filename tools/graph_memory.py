"""Print what one default-config training image costs in memory, by tracemalloc.

    python3 tools/graph_memory.py [--repo PATH]

Three figures, in MB of 2**20 bytes (as ``bench/``'s ``peak_mem_mb``). The
first two are for the default ``ModelConfig`` on the first default training
scene:

- ``train_image_peak_mb``: the peak of one training image, with the
  parameters' grads reset first: forward, assignment, loss and backward, as
  ``train.train_step`` runs them for each image of a batch.
- ``forward_graph_mb``: what one forward graph holds once ``forward``
  returns: every node's array, and whatever its backward keeps.
- ``dataset_resident_mb``: what the records that ``read_dataset`` returns
  for a file of 64 default training scenes hold while they are alive.

tracemalloc counts only what Python and numpy allocate, at the size they
ask for: not what the allocator keeps around it, nor what BLAS allocates
for itself. So the figures do not move with the allocator or the host, as
a process's peak RSS does. Each figure is taken after one warm-up image, so
that what the first call allocates once for the process is not counted.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import tracemalloc

MB = 2.0 ** 20


def _scene_and_model(repo):
    sys.path.insert(0, os.path.join(repo, "src"))
    from aligndet.model import ModelConfig, build_model
    from aligndet.scenes import DatasetConfig, make_dataset, train_seeds

    cfg = ModelConfig()
    record = make_dataset(train_seeds(1), DatasetConfig())[0]
    params, forward = build_model(cfg)
    return cfg, record, params, forward


def train_image_peak_mb(cfg, record, params, forward):
    """Peak MB that tracemalloc sees over one training image, grads reset first."""
    from aligndet.losses import total_loss
    from aligndet.train import _assign_for

    def one_image():
        for p in params.values():
            p.zero_grad()
        outputs = forward(record.image)
        assignment = _assign_for(cfg, record, outputs)
        total_loss(outputs.P_align, outputs.B_align, assignment, record.instances, cfg.grid(),
                   gamma=cfg.gamma).total.backward()

    one_image()
    tracemalloc.start()
    try:
        one_image()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def forward_graph_mb(record, forward):
    """MB that tracemalloc sees still allocated while one forward's outputs are held."""
    forward(record.image)
    tracemalloc.start()
    try:
        outputs = forward(record.image)  # alive while measured
        return tracemalloc.get_traced_memory()[0] / MB
    finally:
        tracemalloc.stop()


def dataset_resident_mb(path):
    """MB that tracemalloc sees still allocated while ``read_dataset(path)``'s records are held."""
    from aligndet.scenes import read_dataset

    tracemalloc.start()
    try:
        records = read_dataset(path)  # alive while measured
        return tracemalloc.get_traced_memory()[0] / MB
    finally:
        tracemalloc.stop()


def write_default_split(path, n=64):
    """Write the first ``n`` default training scenes to ``path``."""
    from aligndet.scenes import DatasetConfig, make_dataset, train_seeds, write_dataset

    write_dataset(make_dataset(train_seeds(n), DatasetConfig()), path)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--repo", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="checkout to measure (default: the one holding this script)")
    args = parser.parse_args(argv)
    cfg, record, params, forward = _scene_and_model(os.path.abspath(args.repo))
    print(f"train_image_peak_mb {train_image_peak_mb(cfg, record, params, forward):.2f}")
    print(f"forward_graph_mb {forward_graph_mb(record, forward):.2f}")
    with tempfile.TemporaryDirectory() as tmp:
        path = write_default_split(os.path.join(tmp, "train.tdset"))
        print(f"dataset_resident_mb {dataset_resident_mb(path):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
