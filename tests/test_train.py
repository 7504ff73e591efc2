import importlib.util
import json
import os
import re
import weakref

import numpy as np
import pytest

from aligndet.errors import CheckpointError, ConfigError, TrainingError
from aligndet.losses import total_loss
from aligndet.model import ModelConfig, build_model, init_model_params
from aligndet.scenes import (
    DatasetConfig,
    make_dataset,
    train_seeds,
    write_dataset,
)
from aligndet.tensor import Tensor
from aligndet.train import (
    OptState,
    adopt_params,
    learning_rate,
    load_checkpoint,
    save_checkpoint,
    sgd_update,
    train,
    train_step,
)


def tiny_cfg(**kw):
    base = dict(
        image_size=32,
        num_classes=2,
        backbone_channels=(4, 8, 8, 8),
        backbone_strides=(2, 2, 2, 1),
        channels=8,
        num_layers=2,
        attention_ratio=4,
        align_channels=4,
        warmup_steps=0,
        lr=1e-3,
        batch_size=2,
        steps=3,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def tiny_dataset(tmp_path, n=4, seed0=0, size=32):
    cfg = DatasetConfig(image_size=size, num_classes=2, max_per_scene=2)
    records = make_dataset(range(seed0, seed0 + n), cfg)
    path = tmp_path / "scenes.tdset"
    write_dataset(records, path)
    return path, records


def load_tool(name):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRAJECTORY_PIN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "float64_trajectory.json"
)
LOSS_KEYS = ("cls_pos", "cls_neg", "reg", "total")


def float64_trajectory(steps=20, scenes=64, batch=8, seed=0, reverse_batches=False):
    """Train the default model in float64 and return what the pin records.

    The parameters are cast to float64 after ``build_model``; nothing else
    changes. Batches are drawn round-robin as ``train`` draws them.
    ``reverse_batches`` flips the image order inside each batch, a pure
    summation reorder, to measure how far rounding alone moves the result.
    Returns (per-step loss rows, {param name: [sum, L2 norm]} after the last
    step).
    """
    cfg = ModelConfig(seed=seed, batch_size=batch)
    records = make_dataset(train_seeds(scenes), DatasetConfig())
    params, forward = build_model(cfg)
    for p in params.values():
        p.data = p.data.astype(np.float64)
    state = OptState()
    rows = []
    for step in range(steps):
        batch_records = [records[(step * batch + k) % scenes] for k in range(batch)]
        if reverse_batches:
            batch_records.reverse()
        losses = train_step(batch_records, params, forward, state, cfg)
        rows.append([losses[k] for k in LOSS_KEYS])
    stats = {
        name: [float(p.data.sum()), float(np.sqrt(np.sum(p.data * p.data)))]
        for name, p in params.items()
    }
    return rows, stats


class TestFloat64Trajectory:
    def test_matches_pin(self):
        """20 float64 steps of the default model stay on the pinned path.

        Float32 training is chaotic, so its checkpoints cannot tell a
        reordered sum from a changed function; in float64 the rounding
        noise stays near 1e-15 over these steps (see the pin's sizing), far
        below the relative tolerance. The pin is read, never written: a
        missing file fails the test.
        """
        if not os.path.exists(TRAJECTORY_PIN):
            pytest.fail(f"trajectory pin {TRAJECTORY_PIN} is missing")
        with open(TRAJECTORY_PIN) as f:
            pin = json.load(f)
        rtol = pin["rtol"]
        rows, stats = float64_trajectory(
            steps=pin["steps"], scenes=pin["scenes"], batch=pin["batch"], seed=pin["seed"]
        )
        failures = []
        for step, (got, want) in enumerate(zip(rows, pin["losses"])):
            for key, g, w in zip(LOSS_KEYS, got, want):
                if abs(g - w) > rtol * abs(w):
                    failures.append(f"step {step} {key}: {g!r} against {w!r}")
        assert sorted(stats) == sorted(pin["params"])
        for name, (total, norm) in stats.items():
            want_sum, want_norm = pin["params"][name]
            if abs(norm - want_norm) > rtol * want_norm:
                failures.append(f"{name} norm: {norm!r} against {want_norm!r}")
            # a sum near zero is scaled by the norm, so cancellation cannot trip it
            if abs(total - want_sum) > rtol * max(abs(want_sum), want_norm):
                failures.append(f"{name} sum: {total!r} against {want_sum!r}")
        assert not failures, "; ".join(failures[:6])


class TestConfig:
    def test_default_validates(self):
        cfg = ModelConfig().validate()
        assert cfg.stride == 8
        grid = cfg.grid()
        assert (grid.height, grid.width) == (16, 16)

    def test_json_roundtrip(self):
        cfg = tiny_cfg(lr=0.005, top_m=7)
        back = ModelConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_json('{"learning_rate": 0.1}')

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(image_size=30).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(backbone_channels=(4, 8, 8, 16)).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(assigner="atss").validate()


class TestBuild:
    def test_same_seed_identical(self):
        a = init_model_params(tiny_cfg())
        b = init_model_params(tiny_cfg())
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)

    def test_different_seed_differs(self):
        a = init_model_params(tiny_cfg(seed=0))
        b = init_model_params(tiny_cfg(seed=1))
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a)

    def test_output_grid_is_stride_8(self):
        cfg = ModelConfig(num_classes=3).validate()
        params, forward = build_model(cfg)
        image = np.zeros((128, 128, 3), dtype=np.float32)
        out = forward(image)
        assert out.P_align.shape == (16, 16, 3)
        assert out.B_align.shape == (16, 16, 4)

    def test_param_count_frozen(self):
        params = init_model_params(ModelConfig().validate())
        total = sum(int(np.prod(p.shape)) for p in params.values())
        assert total == 354_740   # 60,512 backbone + 294,228 head at K=3

    def test_wrong_image_size_rejected(self):
        cfg = tiny_cfg()
        _, forward = build_model(cfg)
        with pytest.raises(Exception):
            forward(np.zeros((64, 64, 3), dtype=np.float32))


class TestOptimizer:
    def test_matches_closed_form_recurrence(self):
        # minimize 0.5*a*p^2: gradient a*p; track the momentum recurrence
        cfg = tiny_cfg(lr=0.05, momentum=0.9, weight_decay=1e-4)
        a = 0.7
        p = Tensor(np.array([1.0], dtype=np.float64))
        params = {"p": p}
        state = OptState()
        p_ref, v_ref = 1.0, 0.0
        for _ in range(100):
            grads = {"p": a * p.data}
            sgd_update(params, grads, state, cfg, cfg.lr)
            g = a * p_ref + cfg.weight_decay * p_ref
            v_ref = cfg.momentum * v_ref + g
            p_ref = p_ref - cfg.lr * v_ref
            assert p.data[0] == pytest.approx(p_ref, abs=1e-6)

    def test_warmup_schedule(self):
        cfg = tiny_cfg(lr=0.01, warmup_steps=50)
        assert learning_rate(cfg, 0) == pytest.approx(0.01 / 50)
        assert learning_rate(cfg, 24) == pytest.approx(0.01 * 25 / 50)
        assert learning_rate(cfg, 49) == pytest.approx(0.01)
        assert learning_rate(cfg, 500) == pytest.approx(0.01)

    def test_zero_lr_keeps_params(self, tmp_path):
        _, records = tiny_dataset(tmp_path)
        # a config rejects lr 0, so the step's own arithmetic is what runs at it
        cfg = tiny_cfg()
        params, forward = build_model(cfg)
        cfg.lr = 0.0
        before = {n: p.data.copy() for n, p in params.items()}
        train_step(records[:2], params, forward, OptState(), cfg)
        for name, p in params.items():
            assert np.array_equal(p.data, before[name])


class TestTrainStep:
    def test_loss_decreases_on_fixed_scene(self, tmp_path):
        # small-lr descent on a single scene; the objective a step descends
        # holds its assignment constant, so measure against that assignment
        from aligndet.train import _assign_for

        wins = 0
        for seed in range(10):
            cfg = tiny_cfg(seed=seed, lr=1e-3)
            _, records = tiny_dataset(tmp_path, n=1, seed0=seed)
            rec = records[0]
            params, forward = build_model(cfg)
            frozen = _assign_for(cfg, rec, forward(rec.image))

            def eval_loss():
                out = forward(rec.image)
                return float(
                    total_loss(out.P_align, out.B_align, frozen, rec.instances, cfg.grid()).total.data
                )

            before = eval_loss()
            train_step([rec], params, forward, OptState(), cfg)
            after = eval_loss()
            if after < before:
                wins += 1
        assert wins == 10

    def test_empty_batch_rejected(self):
        cfg = tiny_cfg()
        params, forward = build_model(cfg)
        with pytest.raises(TrainingError):
            train_step([], params, forward, OptState(), cfg)

    def test_one_graph_alive(self, tmp_path):
        # an image's graph is freed after its backward, before the next forward
        cfg = tiny_cfg()
        _, records = tiny_dataset(tmp_path, n=3)
        params, forward = build_model(cfg)
        seen = []

        def forward_checked(image):
            assert all(ref() is None for ref in seen)
            out = forward(image)
            seen.append(weakref.ref(out.P_align))
            return out

        train_step(records, params, forward_checked, OptState(), cfg)
        assert len(seen) == 3


class TestImageMemory:
    # tools/graph_memory.py's figures at the default config; tracemalloc
    # counts what Python and numpy allocate, so they do not move with the
    # allocator
    @pytest.fixture(scope="class")
    def model(self):
        cfg = ModelConfig()
        record = make_dataset(train_seeds(1), DatasetConfig())[0]
        params, forward = build_model(cfg)
        return cfg, record, params, forward

    def test_training_image_peak(self, model):
        assert load_tool("graph_memory").train_image_peak_mb(*model) < 9.0

    def test_forward_graph(self, model):
        _, record, _, forward = model
        assert load_tool("graph_memory").forward_graph_mb(record, forward) < 3.5


class TestTrainLoop:
    def test_writes_curve_and_checkpoint(self, tmp_path):
        data, _ = tiny_dataset(tmp_path)
        out_dir = tmp_path / "run"
        params, history = train(tiny_cfg(steps=3), data, out_dir)
        assert len(history) == 3
        curve = (out_dir / "loss_curve.csv").read_text().strip().splitlines()
        assert curve[0] == "step,cls_pos,cls_neg,reg,total"
        assert len(curve) == 4
        assert sorted(os.listdir(out_dir)) == ["checkpoint", "loss_curve.csv"]
        assert sorted(os.listdir(out_dir / "checkpoint")) == ["manifest.txt", "params.bin"]

    def test_zero_steps_checkpoint_is_init(self, tmp_path):
        data, _ = tiny_dataset(tmp_path)
        cfg = tiny_cfg(steps=0)
        params, history = train(cfg, data, tmp_path / "run0")
        assert history == []
        init = init_model_params(cfg)
        loaded, step, _ = load_checkpoint(tmp_path / "run0" / "checkpoint")
        assert step == 0
        for name in init:
            assert np.array_equal(loaded[name].data, init[name].data)

    def test_bit_identical_reruns(self, tmp_path):
        data, _ = tiny_dataset(tmp_path)
        train(tiny_cfg(steps=2), data, tmp_path / "a")
        train(tiny_cfg(steps=2), data, tmp_path / "b")
        pa = (tmp_path / "a" / "checkpoint" / "params.bin").read_bytes()
        pb = (tmp_path / "b" / "checkpoint" / "params.bin").read_bytes()
        assert pa == pb

    def test_losses_finite_and_logged(self, tmp_path):
        data, _ = tiny_dataset(tmp_path)
        _, history = train(tiny_cfg(steps=3), data, tmp_path / "runf")
        for row in history:
            assert all(np.isfinite(v) for v in row.values())

    def test_size_mismatch_rejected(self, tmp_path):
        data, _ = tiny_dataset(tmp_path, size=64)
        with pytest.raises(ConfigError):
            train(tiny_cfg(image_size=32), data, tmp_path / "runx")


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = tiny_cfg()
        params = init_model_params(cfg)
        path = tmp_path / "ckpt"
        save_checkpoint(params, path, step=7, config=cfg)
        loaded, step, config_json = load_checkpoint(path)
        assert step == 7
        assert ModelConfig.from_json(config_json) == cfg
        assert set(loaded) == set(params)
        for name in params:
            assert np.array_equal(loaded[name].data, params[name].data)

    def test_edited_shape_rejected(self, tmp_path):
        params = init_model_params(tiny_cfg())
        path = tmp_path / "ckpt"
        save_checkpoint(params, path)
        manifest = (path / "manifest.txt").read_text()
        (path / "manifest.txt").write_text(
            manifest.replace("param backbone.0.w 3,3,3,4", "param backbone.0.w 3,3,3,5")
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        params = init_model_params(tiny_cfg())
        path = tmp_path / "ckpt"
        save_checkpoint(params, path)
        payload = (path / "params.bin").read_bytes()
        (path / "params.bin").write_bytes(payload[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_name_rejected_with_name(self, tmp_path):
        cfg = tiny_cfg()
        params = init_model_params(cfg)
        dropped = dict(params)
        del dropped["m.pred.w"]
        path = tmp_path / "ckpt"
        save_checkpoint(dropped, path)
        loaded, _, _ = load_checkpoint(path)
        with pytest.raises(CheckpointError) as exc:
            adopt_params(params, loaded)
        assert "m.pred.w" in str(exc.value)

    def test_not_a_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nothing_here")

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        params = init_model_params(cfg)
        path = tmp_path / "ckpt"
        save_checkpoint(params, path, step=3, config=cfg)
        before = {name: (path / name).read_bytes() for name in ("manifest.txt", "params.bin")}
        written = []

        class HalfWrittenPayload:
            # writes the payload up to half its size, then fails like a full disk
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                room = len(before["params.bin"]) // 2 - sum(written)
                if len(data) > room:
                    self.f.write(data[:room])
                    written.append(room)
                    raise OSError("disk full")
                written.append(len(data))
                return self.f.write(data)

        def open_with_failing_payload(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            if os.path.basename(file) == "params.bin" and "w" in mode:
                return HalfWrittenPayload(f)
            return f

        monkeypatch.setattr("aligndet.train.open", open_with_failing_payload, raising=False)
        changed = {name: Tensor(p.data + 1.0) for name, p in params.items()}
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(changed, path, step=4, config=cfg)
        assert sum(written) == len(before["params.bin"]) // 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        assert {name: (path / name).read_bytes() for name in before} == before
        loaded, step, _ = load_checkpoint(path)
        assert step == 3
        for name in params:
            assert np.array_equal(loaded[name].data, params[name].data)

    def test_overwrite_replaces_checkpoint(self, tmp_path):
        cfg = tiny_cfg()
        params = init_model_params(cfg)
        path = tmp_path / "ckpt"
        save_checkpoint(params, path, step=3, config=cfg)
        changed = {name: Tensor(p.data + 1.0) for name, p in params.items()}
        save_checkpoint(changed, path, step=4, config=cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        assert sorted(p.name for p in path.iterdir()) == ["manifest.txt", "params.bin"]
        loaded, step, _ = load_checkpoint(path)
        assert step == 4
        for name in params:
            assert np.array_equal(loaded[name].data, changed[name].data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_not_saved(self, tmp_path, bad):
        cfg = tiny_cfg()
        params = init_model_params(cfg)
        path = tmp_path / "ckpt"
        save_checkpoint(params, path, step=3, config=cfg)
        before = {name: (path / name).read_bytes() for name in ("manifest.txt", "params.bin")}
        params["o.pred.b"].data[5] = bad
        with pytest.raises(CheckpointError, match=re.escape("'o.pred.b'")):
            save_checkpoint(params, path, step=4, config=cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        assert {name: (path / name).read_bytes() for name in before} == before
