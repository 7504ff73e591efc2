import json
import os
import re

import numpy as np
import pytest

from aligndet.cli import main
from aligndet.errors import CheckpointError
from aligndet.model import ModelConfig
from aligndet.scenes import read_dataset, write_dataset
from aligndet.train import load_checkpoint


def config_dict(**model_extra):
    model = dict(
        image_size=32, num_classes=2,
        backbone_channels=[4, 8, 8, 8], backbone_strides=[2, 2, 2, 1],
        channels=8, num_layers=2, attention_ratio=4, align_channels=4,
        steps=2, batch_size=2, warmup_steps=0, lr=0.001, seed=0,
    )
    model.update(model_extra)
    return {
        "dataset": {"image_size": 32, "num_classes": 2, "max_per_scene": 2,
                    "train_count": 4, "val_count": 2},
        "model": model,
    }


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_dict()))
    return str(path)


@pytest.fixture
def generated(tmp_path, cfg_path):
    out = tmp_path / "data"
    assert main(["gen", "--config", cfg_path, "--out", str(out)]) == 0
    return out


@pytest.fixture
def checkpoint(tmp_path, cfg_path, generated):
    out = tmp_path / "run"
    code = main(["train", "--config", cfg_path,
                 "--dataset", str(generated / "train.tdset"), "--out", str(out)])
    assert code == 0
    return out / "checkpoint"


# (section, replacement or fields to update) of the wrong JSON type, each on
# top of a working config: each must exit 2 with an error line, never a
# traceback, a silent default or a run
BAD_MODEL = [
    ("model", 5), ("model", []), ("model", {"steps": "ten"}), ("model", {"image_size": "128"}),
    ("model", {"steps": True}), ("model", {"lr": "0.1"}), ("model", {"seed": 1.5}),
    ("model", {"backbone_strides": [2, 2, True, 1]}), ("model", {"backbone_strides": 2}),
    ("model", {"backbone_channels": [], "backbone_strides": []}),
]
BAD_DATASET = [
    ("dataset", []), ("dataset", {"image_size": "64"}), ("dataset", {"train_count": "x"}),
    ("dataset", {"val_count": False}), ("dataset", {"occlusion_allowed": 1}),
]


def bad_config(tmp_path, section, value):
    raw = config_dict()
    if isinstance(value, dict):
        raw[section].update(value)
    else:
        raw[section] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestUsageErrors:
    def test_no_verb(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["train", "--wibble", "3"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--config", "x.json"]) == 1
        err = capsys.readouterr().err
        assert "--dataset" in err

    def test_eval_requires_checkpoint(self, capsys):
        assert main(["eval", "--dataset", "d.tdset", "--out", "o"]) == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_bad_seed(self, capsys):
        assert main(["gen", "--config", "c", "--out", "o", "--seed", "banana"]) == 1

    def test_seed_out_of_range(self):
        assert main(["gen", "--config", "c", "--out", "o",
                     "--seed", str(2 ** 64)]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gradcheck" in capsys.readouterr().out


class TestGen:
    def test_writes_both_splits(self, generated):
        train = read_dataset(generated / "train.tdset")
        val = read_dataset(generated / "val.tdset")
        assert len(train) == 4
        assert len(val) == 2
        # validation seeds live in a disjoint range
        assert min(r.seed for r in val) >= 2 ** 32

    def test_deterministic(self, tmp_path, cfg_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg_path, "--out", str(b)]) == 0
        assert (a / "train.tdset").read_bytes() == (b / "train.tdset").read_bytes()

    def test_seed_shifts_scenes(self, tmp_path, cfg_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg_path, "--out", str(b), "--seed", "9"]) == 0
        assert (a / "train.tdset").read_bytes() != (b / "train.tdset").read_bytes()

    def test_missing_config_file(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_section(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"datset": {}}))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_dataset_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dataset": {"image_siez": 64}}))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("section,value", BAD_MODEL + BAD_DATASET)
    def test_wrong_json_type(self, tmp_path, capsys, section, value):
        bad = bad_config(tmp_path, section, value)
        assert main(["gen", "--config", bad, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()


class TestTrain:
    def test_outputs(self, tmp_path, cfg_path, generated, checkpoint):
        run = checkpoint.parent
        curve = (run / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "step,cls_pos,cls_neg,reg,total"
        assert len(curve) == 3
        svg = (run / "loss_curve.svg").read_text()
        assert svg.startswith("<svg")
        params, step, cfg_json = load_checkpoint(checkpoint)
        assert step == 2
        assert cfg_json is not None

    def test_seed_flag_overrides(self, tmp_path, cfg_path, generated):
        out_a = tmp_path / "ra"
        out_b = tmp_path / "rb"
        data = str(generated / "train.tdset")
        assert main(["train", "--config", cfg_path, "--dataset", data,
                     "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["train", "--config", cfg_path, "--dataset", data,
                     "--out", str(out_b), "--seed", "2"]) == 0
        pa = (out_a / "checkpoint" / "params.bin").read_bytes()
        pb = (out_b / "checkpoint" / "params.bin").read_bytes()
        assert pa != pb

    def test_config_without_model_section(self, tmp_path, generated):
        bad = tmp_path / "nomodel.json"
        bad.write_text(json.dumps({"dataset": {"image_size": 32}}))
        assert main(["train", "--config", str(bad),
                     "--dataset", str(generated / "train.tdset"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("section,value", BAD_MODEL)
    def test_wrong_json_type(self, tmp_path, generated, capsys, section, value):
        bad = bad_config(tmp_path, section, value)
        assert main(["train", "--config", bad, "--dataset", str(generated / "train.tdset"),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_numbers_and_lists_where_the_defaults_want_them(self):
        # an int may stand for a float, and a list of ints for a tuple
        cfg = ModelConfig.from_json('{"lr": 1, "backbone_strides": [2, 2, 2, 1]}')
        assert cfg.lr == 1 and cfg.backbone_strides == (2, 2, 2, 1)

    def test_missing_dataset(self, tmp_path, cfg_path):
        assert main(["train", "--config", cfg_path,
                     "--dataset", str(tmp_path / "nope.tdset"),
                     "--out", str(tmp_path / "o")]) == 2


class TestEval:
    def test_report_schema(self, tmp_path, generated, checkpoint, capsys):
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(generated / "val.tdset"),
                     "--checkpoint", str(checkpoint), "--out", str(out)])
        assert code == 0
        lines = (out / "alignment_report.csv").read_text().splitlines()
        assert lines[0] == "pcc_top50,mean_iou_top10,n_correct,n_redundant,n_error,ap50,ap"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == 7
        assert (out / "score_map.csv").exists()
        assert "pcc_top50" in capsys.readouterr().out

    def test_score_map_matches_grid(self, tmp_path, generated, checkpoint):
        out = tmp_path / "eval2"
        main(["eval", "--dataset", str(generated / "val.tdset"),
              "--checkpoint", str(checkpoint), "--out", str(out)])
        rows = (out / "score_map.csv").read_text().strip().splitlines()
        assert len(rows) == 4                       # 32px / stride 8
        assert all(len(r.split(",")) == 4 for r in rows)

    def test_uses_embedded_config(self, tmp_path, generated, checkpoint):
        # no --config on purpose: the checkpoint carries its own
        out = tmp_path / "eval3"
        assert main(["eval", "--dataset", str(generated / "val.tdset"),
                     "--checkpoint", str(checkpoint), "--out", str(out)]) == 0

    @pytest.mark.parametrize("field", ["step", "dims", "offset"])
    def test_non_integer_manifest_field(self, tmp_path, generated, checkpoint, capsys, field):
        # a manifest number that does not parse names its line, in the
        # loader and on the command line, instead of raising a bare ValueError
        manifest = checkpoint / "manifest.txt"
        lines = manifest.read_text().splitlines()
        at = 0 if field == "step" else next(i for i, line in enumerate(lines)
                                            if line.startswith("param "))
        kind, rest = lines[at].split(" ", 1)
        if field == "step":
            lines[at] = "step three"
        else:
            name, dims, offset = rest.rsplit(" ", 2)
            dims = "3,x,3,4" if field == "dims" else dims
            lines[at] = f"param {name} {dims} {'zero' if field == 'offset' else offset}"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=re.escape(repr(lines[at]))):
            load_checkpoint(checkpoint)
        assert main(["eval", "--dataset", str(generated / "val.tdset"),
                     "--checkpoint", str(checkpoint), "--out", str(tmp_path / "o")]) == 2
        assert repr(lines[at]) in capsys.readouterr().err

    def test_missing_checkpoint_dir(self, tmp_path, generated):
        assert main(["eval", "--dataset", str(generated / "val.tdset"),
                     "--checkpoint", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_dataset_size_mismatch(self, tmp_path, cfg_path, checkpoint):
        big = config_dict()
        big["dataset"]["image_size"] = 64
        big["model"]["image_size"] = 64
        big_cfg = tmp_path / "big.json"
        big_cfg.write_text(json.dumps(big))
        out = tmp_path / "bigdata"
        assert main(["gen", "--config", str(big_cfg), "--out", str(out)]) == 0
        assert main(["eval", "--dataset", str(out / "val.tdset"),
                     "--checkpoint", str(checkpoint),
                     "--out", str(tmp_path / "o")]) == 2

    def test_empty_dataset_rejected(self, tmp_path, checkpoint, capsys):
        empty = tmp_path / "empty.tdset"
        write_dataset([], str(empty))
        for verb, extra in (("eval", []), ("analyze", ["--baseline", str(checkpoint)])):
            out = tmp_path / verb
            assert main([verb, "--dataset", str(empty), "--checkpoint", str(checkpoint),
                         "--out", str(out)] + extra) == 2
            assert "holds no scenes" in capsys.readouterr().err
            assert not out.exists()

    def test_corrupt_checkpoint(self, tmp_path, generated, checkpoint):
        (checkpoint / "params.bin").write_bytes(b"garbage")
        assert main(["eval", "--dataset", str(generated / "val.tdset"),
                     "--checkpoint", str(checkpoint),
                     "--out", str(tmp_path / "o")]) == 2


class TestAnalyze:
    def test_two_row_table(self, tmp_path, cfg_path, generated, checkpoint, capsys):
        base_out = tmp_path / "base"
        center = config_dict(assigner="center")
        center_cfg = tmp_path / "center.json"
        center_cfg.write_text(json.dumps(center))
        assert main(["train", "--config", str(center_cfg),
                     "--dataset", str(generated / "train.tdset"),
                     "--out", str(base_out)]) == 0
        out = tmp_path / "cmp"
        code = main(["analyze", "--dataset", str(generated / "val.tdset"),
                     "--checkpoint", str(checkpoint),
                     "--baseline", str(base_out / "checkpoint"),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "analyze_report.csv").read_text().splitlines()
        assert lines[0] == ("model,pcc_top50,mean_iou_top10,"
                            "n_correct,n_redundant,n_error,ap50,ap")
        assert len(lines) == 3
        assert lines[1].startswith("model,")
        assert lines[2].startswith("baseline,")
        assert (out / "analyze_report.svg").read_text().startswith("<svg")

    def test_baseline_flag_required(self, tmp_path, capsys):
        assert main(["analyze", "--dataset", "d", "--checkpoint", "c",
                     "--out", "o"]) == 1
        assert "--baseline" in capsys.readouterr().err


class TestGradcheck:
    def test_reports_suite_result(self, monkeypatch):
        from aligndet import selfcheck

        monkeypatch.setattr(selfcheck, "run_all", lambda out=None, seed=0: True)
        assert main(["gradcheck"]) == 0
        monkeypatch.setattr(selfcheck, "run_all", lambda out=None, seed=0: False)
        assert main(["gradcheck"]) == 2

    def test_fast_suites_pass(self):
        from aligndet import selfcheck
        from aligndet.model import build_model

        params, forward = build_model(selfcheck._check_cfg(seed=7))
        selfcheck._perturb(params, 123)
        image, _ = selfcheck._fixture_record(2000)
        results = selfcheck.identity_suite(params, forward, image) + selfcheck.format_suite()
        for name, ok, detail in results:
            assert ok, f"{name}: {detail}"

    def test_seed_labels_wrap_like_the_seeds_they_name(self, capsys):
        # every printed seed is one the CLI accepts: seed + k wraps mod 2^64
        assert main(["gradcheck", "--seed", str(2 ** 64 - 1)]) == 0
        labels = [line.split(":")[0].split("/")[-1]
                  for line in capsys.readouterr().out.splitlines()
                  if "gradient/full-graph/" in line]
        assert labels == [f"seed{2 ** 64 - 1}", "seed0", "seed1"]
