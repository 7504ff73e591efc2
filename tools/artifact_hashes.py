"""Print sha256 prefixes of every artifact the CLI writes, for bit-identity checks.

Run it from the repository root on two checkouts (say, a change and its
parent) on the same machine and diff the output:

    python3 tools/artifact_hashes.py [--repo PATH]

or let it run both and print only the lines that differ, ``-`` for the
other checkout's and ``+`` for this one's; it exits 1 if any line differs:

    python3 tools/artifact_hashes.py [--repo PATH] --against OTHER

In a temporary directory it runs ``gen`` twice (16 train and 4 val scenes,
once at the default dataset config and once with ``"occlusion_allowed":
true``), ``train`` for 6 steps and for 0 steps at the default model config on
the first train split, and for 6 steps with ``"assigner": "center"`` on the
occluded one, where one anchor lies inside two shrunk boxes, so the center
assigner's conflict rule decides a label. It then runs ``eval`` of
``bench/checkpoint/`` and of the three new checkpoints on their val split (the
default 6-step one twice: with its embedded config and with ``--config``),
``analyze`` of ``bench/checkpoint/`` against the default 6-step checkpoint,
and ``gradcheck``. Every file written and the ``gradcheck`` stdout
are hashed. The CLI runs in child processes with ``OPENBLAS_NUM_THREADS=1``,
so numpy loads with one BLAS thread and the GEMMs sum in one fixed order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

PREFIX = 16


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:PREFIX]


def _run(repo, args):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = os.path.join(repo, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "aligndet", *args], env=env,
                          capture_output=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"aligndet {args[0]} exited with status {proc.returncode}")
    return proc.stdout


def _hash_tree(root, label):
    lines = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = _digest(fh.read())
            lines.append(f"{digest}  {label}/{os.path.relpath(path, root)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def artifact_hashes(repo):
    """The hash lines of every artifact that ``repo``'s CLI writes, sorted by label."""
    bench_ckpt = os.path.join(repo, "bench", "checkpoint")
    with tempfile.TemporaryDirectory(prefix="artifact_hashes_") as tmp:
        def path(*parts):
            return os.path.join(tmp, *parts)

        def write_config(name, steps, dataset=None, **model):
            cfg = {"dataset": {"train_count": 16, "val_count": 4, **(dataset or {})},
                   "model": {"steps": steps, **model}}
            with open(path(name), "w") as fh:
                json.dump(cfg, fh)
            return path(name)

        cfg6, cfg0 = write_config("steps6.json", 6), write_config("steps0.json", 0)
        cfg6_center = write_config("steps6_center.json", 6, dataset={"occlusion_allowed": True},
                                   assigner="center")
        for data, cfg in (("data", cfg6), ("data_occluded", cfg6_center)):
            _run(repo, ["gen", "--config", cfg, "--out", path(data)])
        for name, cfg, data in (("train6", cfg6, "data"), ("train0", cfg0, "data"),
                                ("train6_center", cfg6_center, "data_occluded")):
            _run(repo, ["train", "--config", cfg, "--dataset", path(data, "train.tdset"),
                        "--out", path(name)])
        for name, ckpt, data, extra in (
                ("eval_bench", bench_ckpt, "data", []),
                ("eval_train0", path("train0", "checkpoint"), "data", []),
                ("eval_train6", path("train6", "checkpoint"), "data", []),
                ("eval_train6_config", path("train6", "checkpoint"), "data", ["--config", cfg6]),
                ("eval_train6_center", path("train6_center", "checkpoint"), "data_occluded", [])):
            _run(repo, ["eval", "--dataset", path(data, "val.tdset"), "--checkpoint", ckpt,
                        "--out", path(name)] + extra)
        _run(repo, ["analyze", "--dataset", path("data", "val.tdset"),
                    "--checkpoint", bench_ckpt, "--baseline", path("train6", "checkpoint"),
                    "--out", path("analyze")])
        gradcheck = _run(repo, ["gradcheck"])

        lines = []
        for name in ("data", "data_occluded", "train6", "train0", "train6_center", "eval_bench",
                     "eval_train0", "eval_train6", "eval_train6_config", "eval_train6_center",
                     "analyze"):
            lines += _hash_tree(path(name), name)
        lines.append(f"{_digest(gradcheck)}  gradcheck/stdout")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--repo", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="checkout to run (default: the one holding this script)")
    parser.add_argument("--against", metavar="OTHER",
                        help="also run checkout OTHER; print only the differing lines, exit 1 if any")
    args = parser.parse_args(argv)
    lines = artifact_hashes(os.path.abspath(args.repo))
    if args.against is None:
        print("\n".join(lines))
        return 0
    other = artifact_hashes(os.path.abspath(args.against))
    differ = [f"- {line}" for line in other if line not in lines]
    differ += [f"+ {line}" for line in lines if line not in other]
    if differ:
        print("\n".join(differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
