"""Remake the converged checkpoint that the eval_trained workload evaluates.

    python3 bench/make_checkpoint.py

Runs the `gen` and `train` verbs in this process: 500 steps at the default
config, model seed 0, on the 64-scene train split of generator seed 0. It
copies the final checkpoint into bench/checkpoint/, evaluates it on the
default 16-scene val split with the `eval` verb, and prints the platform
fingerprint and the val AP50. The weights depend on the BLAS kernel of the
machine that trains them, which is why the benchmark keeps them committed
instead of training them anew on each side of a comparison.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import common

STEPS = 500
MODEL_SEED = 0


def main():
    common.pin_blas_threads()
    common.import_aligndet()
    from aligndet import cli
    from aligndet.train import MANIFEST_NAME, PAYLOAD_NAME

    work = os.path.join(common.RUNS_DIR, "make_checkpoint")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "config.json")
    with open(config, "w") as f:
        json.dump({"dataset": {"train_count": 64, "val_count": 16},
                   "model": {"steps": STEPS, "seed": MODEL_SEED}}, f)
    data = os.path.join(work, "data")
    run = os.path.join(work, "run")
    for argv in (
        ["gen", "--config", config, "--out", data],
        ["train", "--config", config, "--dataset", os.path.join(data, "train.tdset"),
         "--out", run],
    ):
        if cli.main(argv) != 0:
            return 2
    os.makedirs(common.CHECKPOINT_DIR, exist_ok=True)
    for name in (MANIFEST_NAME, PAYLOAD_NAME):
        shutil.copyfile(os.path.join(run, "checkpoint", name),
                        os.path.join(common.CHECKPOINT_DIR, name))
    status = cli.main(["eval", "--dataset", os.path.join(data, "val.tdset"),
                       "--checkpoint", common.CHECKPOINT_DIR,
                       "--out", os.path.join(work, "eval")])
    print(json.dumps({"platform": common.fingerprint(), "steps": STEPS,
                      "seed": MODEL_SEED}))
    return status


if __name__ == "__main__":
    sys.exit(main())
