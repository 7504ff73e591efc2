"""Command line entry point.

Verbs:
  gen        render synthetic scene datasets from a config
  train      fit a detector on a dataset file
  eval       score a checkpoint on a dataset, emit alignment_report.csv
  analyze    compare two checkpoints side by side
  gradcheck  run the built-in oracle suites

Shared flags: --config, --dataset, --checkpoint, --out, --seed. Exit
status is 0 on success, 1 on a usage error, 2 on a runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import AligndetError, ConfigError
from .metrics import evaluate_dataset
from .model import ModelConfig, checked_fields, model_forward, param_specs
from .report import (
    write_grid_csv,
    write_loss_plot,
    write_report_csv,
    write_report_plot,
    write_single_report_csv,
)
from .scenes import DatasetConfig, make_dataset, train_seeds, val_seeds, write_dataset, read_dataset
from .tensor import Tensor
from .train import adopt_params, check_records, load_checkpoint, train

_U64 = 2 ** 64


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _seed(text):
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an integer") from None
    if not 0 <= value < _U64:
        raise argparse.ArgumentTypeError(f"seed {value} outside [0, 2^64)")
    return value


def build_parser():
    parser = _Parser(prog="aligndet", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="render synthetic scene datasets")
    gen.add_argument("--config", required=True, help="JSON config file")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=_seed, default=0, help="offset added to scene seeds")

    tr = sub.add_parser("train", help="fit a detector")
    tr.add_argument("--config", required=True, help="JSON config file")
    tr.add_argument("--dataset", required=True, help="scene dataset file")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--seed", type=_seed, default=None, help="override the model seed")

    ev = sub.add_parser("eval", help="score a checkpoint on a dataset")
    ev.add_argument("--config", help="JSON config file (default: the checkpoint's)")
    ev.add_argument("--dataset", required=True, help="scene dataset file")
    ev.add_argument("--checkpoint", required=True, help="checkpoint directory")
    ev.add_argument("--out", required=True, help="output directory")

    an = sub.add_parser("analyze", help="compare two checkpoints")
    an.add_argument("--config", help="JSON config file (default: each checkpoint's)")
    an.add_argument("--dataset", required=True, help="scene dataset file")
    an.add_argument("--checkpoint", required=True, help="checkpoint directory")
    an.add_argument("--baseline", required=True, help="second checkpoint to compare against")
    an.add_argument("--out", required=True, help="output directory")

    gc = sub.add_parser("gradcheck", help="run the built-in oracle suites")
    gc.add_argument("--seed", type=_seed, default=0, help="seed for the randomized suites")
    return parser


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return checked_fields(raw, {"dataset": {}, "model": {}}, path)


def _dataset_config(raw):
    counts = {"train_count": 64, "val_count": 16}
    section = checked_fields(raw.get("dataset", {}), {**asdict(DatasetConfig()), **counts},
                             "dataset config")
    counts = {key: section.pop(key, n) for key, n in counts.items()}
    return DatasetConfig(**section), counts


def _model_config(raw):
    if "model" not in raw:
        raise ConfigError("config has no \"model\" section")
    return ModelConfig.from_json(json.dumps(raw["model"]))


def _cmd_gen(args):
    raw = _load_config(args.config)
    cfg, counts = _dataset_config(raw)
    stride = _model_config(raw).stride if "model" in raw else None
    cfg.validate(stride=stride)
    os.makedirs(args.out, exist_ok=True)
    for split, seeds in (
        ("train", train_seeds(counts["train_count"])),
        ("val", val_seeds(counts["val_count"])),
    ):
        shifted = [(s + args.seed) % _U64 for s in seeds]
        records = make_dataset(shifted, cfg)
        path = os.path.join(args.out, f"{split}.tdset")
        write_dataset(records, path)
        n_inst = sum(len(r.instances) for r in records)
        print(f"wrote {path}: {len(records)} scenes, {n_inst} instances")
    return 0


def _progress(step, losses):
    if step % 50 == 0 or step < 3:
        print(f"step {step}: total {losses['total']:.4f} "
              f"(cls+ {losses['cls_pos']:.4f}, cls- {losses['cls_neg']:.4f}, "
              f"reg {losses['reg']:.4f})")


def _cmd_train(args):
    raw = _load_config(args.config)
    cfg = _model_config(raw)
    if args.seed is not None:
        cfg.seed = args.seed
    _, history = train(cfg, args.dataset, args.out, progress=_progress)
    if history:
        rows = [dict(step=i, **h) for i, h in enumerate(history)]
        write_loss_plot(os.path.join(args.out, "loss_curve.svg"), rows)
        print(f"final loss {history[-1]['total']:.4f} after {len(history)} steps")
    print(f"checkpoint at {os.path.join(args.out, 'checkpoint')}")
    return 0


def _restore(checkpoint, config_path):
    loaded, step, embedded = load_checkpoint(checkpoint)
    if config_path is not None:
        cfg = _model_config(_load_config(config_path))
    elif embedded is not None:
        cfg = ModelConfig.from_json(embedded)
    else:
        raise ConfigError(
            f"checkpoint {checkpoint} carries no config; pass --config"
        )
    # placeholders of the described shapes for the checkpoint's arrays: nothing is drawn
    params = {name: Tensor(np.empty(shape, np.float32)) for name, shape, _ in param_specs(cfg)}
    adopt_params(params, loaded)
    return cfg, model_forward(cfg, params), step


def _cmd_eval(args):
    cfg, forward, step = _restore(args.checkpoint, args.config)
    records = read_dataset(args.dataset)
    check_records(records, cfg, args.dataset)
    score_maps = []

    def forward_keeping_first(image):
        # scene 0's score map goes to score_map.csv without a second forward
        out = forward(image)
        if not score_maps:
            score_maps.append(out.P_align.data.max(axis=-1))
        return out

    report = evaluate_dataset(forward_keeping_first, records, cfg.grid())
    os.makedirs(args.out, exist_ok=True)
    write_single_report_csv(os.path.join(args.out, "alignment_report.csv"), report)
    write_grid_csv(os.path.join(args.out, "score_map.csv"), score_maps[0])
    for column, value in zip(report.COLUMNS, report.csv_row()):
        print(f"{column} {value if value != '' else 'missing'}")
    print(f"evaluated {len(records)} scenes at step {step}")
    return 0


def _cmd_analyze(args):
    records = read_dataset(args.dataset)
    rows = []
    for label, path in (("model", args.checkpoint), ("baseline", args.baseline)):
        cfg, forward, _ = _restore(path, args.config)
        check_records(records, cfg, args.dataset)
        rows.append((label, evaluate_dataset(forward, records, cfg.grid())))
    os.makedirs(args.out, exist_ok=True)
    write_report_csv(os.path.join(args.out, "analyze_report.csv"), rows)
    write_report_plot(os.path.join(args.out, "analyze_report.svg"), rows)
    header = ["model"] + list(rows[0][1].COLUMNS)
    print(",".join(header))
    for label, report in rows:
        print(",".join([label] + report.csv_row()))
    return 0


def _cmd_gradcheck(args):
    from . import selfcheck

    ok = selfcheck.run_all(seed=args.seed)
    if not ok:
        sys.stderr.write("error: one or more checks failed\n")
        return 2
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    handlers = {
        "gen": _cmd_gen,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "analyze": _cmd_analyze,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (AligndetError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
