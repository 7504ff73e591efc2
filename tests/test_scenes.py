import os
import pickle
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aligndet import scenes
from aligndet.errors import ConfigError, FormatError
from aligndet.scenes import (
    MIN_BOX_SIDE,
    DatasetConfig,
    SplitMix64,
    disk_mask,
    generate_scene,
    make_dataset,
    read_dataset,
    tight_box,
    train_seeds,
    triangle_mask,
    val_seeds,
    write_dataset,
)


class TestRng:
    def test_known_stream_is_stable(self):
        # frozen first draws of stream 0; guards the generator constants
        rng = SplitMix64(0)
        first = rng.raw(3)
        again = SplitMix64(0).raw(3)
        assert np.array_equal(first, again)
        assert first.dtype == np.uint64

    def test_streams_differ(self):
        assert not np.array_equal(SplitMix64(1).raw(8), SplitMix64(2).raw(8))

    def test_counter_advances(self):
        rng = SplitMix64(7)
        a = rng.uniform((4,))
        b = rng.uniform((4,))
        assert not np.array_equal(a, b)

    def test_chunking_is_invisible(self):
        # one draw of 6 equals two draws of 3
        whole = SplitMix64(5).uniform((6,))
        rng = SplitMix64(5)
        parts = np.concatenate([rng.uniform((3,)), rng.uniform((3,))])
        assert np.array_equal(whole, parts)

    def test_uniform_range(self):
        u = SplitMix64(3).uniform((4000,))
        assert (u >= 0).all() and (u < 1).all()
        assert 0.45 < u.mean() < 0.55

    def test_randint_bounds(self):
        rng = SplitMix64(9)
        draws = [rng.randint(2, 5) for _ in range(200)]
        assert set(draws) == {2, 3, 4}

    def test_normal_moments(self):
        z = SplitMix64(4).normal((20000,))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_any_seed_reproduces(self, seed):
        assert np.array_equal(SplitMix64(seed).raw(4), SplitMix64(seed).raw(4))


class TestMasks:
    def test_disk_radius_16_box_side(self):
        # rasterization oracle: r=16 disk at the center of a 128px image
        mask = disk_mask(128, 128, 64.0, 64.0, 16.0)
        x1, y1, x2, y2 = tight_box(mask)
        assert abs((x2 - x1) - 32.0) <= 1.0
        assert abs((y2 - y1) - 32.0) <= 1.0

    def test_tight_box_empty(self):
        assert tight_box(np.zeros((4, 4), dtype=bool)) is None

    def test_tight_box_single_pixel(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 3] = True
        assert tight_box(m) == (3.0, 2.0, 4.0, 3.0)

    def test_triangle_mass_is_off_center(self):
        # right angle at top-left: mass concentrates in the box's low corner
        mask = triangle_mask(64, 64, 10.0, 10.0, 40.0, 40.0, 0)
        x1, y1, x2, y2 = tight_box(mask)
        ii, jj = np.mgrid[0:64, 0:64]
        cx_mass = jj[mask].mean()
        box_cx = (x1 + x2) / 2
        assert cx_mass < box_cx - 3.0

    def test_triangle_orientations_differ(self):
        # the (y0, x0) corner carries the right angle; legs point away from it
        m0 = triangle_mask(32, 32, 8, 8, 16, 16, 0)
        m3 = triangle_mask(32, 32, 23, 23, 16, 16, 3)
        assert np.array_equal(m3, m0[::-1, ::-1])  # point reflection (8 -> 31-8)
        m1 = triangle_mask(32, 32, 8, 23, 16, 16, 1)
        assert np.array_equal(m1, m0[:, ::-1])     # mirror across x


class TestGenerateScene:
    def test_deterministic(self):
        cfg = DatasetConfig(image_size=64)
        a = generate_scene(42, cfg)
        b = generate_scene(42, cfg)
        assert np.array_equal(a.image, b.image)
        assert a.instances == b.instances
        assert a.seed == b.seed == 42

    def test_seeds_differ(self):
        cfg = DatasetConfig(image_size=64)
        assert not np.array_equal(generate_scene(0, cfg).image, generate_scene(1, cfg).image)

    def test_image_range_and_dtype(self):
        rec = generate_scene(3, DatasetConfig(image_size=64, noise_sigma=0.1))
        assert rec.image.dtype == np.float32
        assert rec.image.shape == (64, 64, 3)
        assert rec.image.min() >= 0.0 and rec.image.max() <= 1.0

    def test_instance_count_bounds(self):
        cfg = DatasetConfig(image_size=96, max_per_scene=4)
        for seed in range(30):
            n = len(generate_scene(seed, cfg).instances)
            assert 1 <= n <= 4

    def test_single_instance_config(self):
        cfg = DatasetConfig(image_size=64, max_per_scene=1)
        for seed in range(10):
            assert len(generate_scene(seed, cfg).instances) == 1

    def test_boxes_inside_bounds_with_min_side(self):
        cfg = DatasetConfig(image_size=96)
        for seed in range(40):
            for box, _ in generate_scene(seed, cfg).instances:
                assert 0 <= box.x1 < box.x2 <= 96
                assert 0 <= box.y1 < box.y2 <= 96
                assert box.x2 - box.x1 >= MIN_BOX_SIDE
                assert box.y2 - box.y1 >= MIN_BOX_SIDE

    def test_no_occlusion_means_disjoint_boxes(self):
        cfg = DatasetConfig(image_size=128, occlusion_allowed=False)
        for seed in range(25):
            boxes = generate_scene(seed, cfg).boxes_array()
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    a, b = boxes[i], boxes[j]
                    ix = min(a[2], b[2]) - max(a[0], b[0])
                    iy = min(a[3], b[3]) - max(a[1], b[1])
                    assert ix <= 0 or iy <= 0

    def test_stored_box_matches_rendered_pixels(self):
        # with zero noise, shape pixels differ from the background; re-measure
        # each instance inside its stored box and compare extents
        cfg = DatasetConfig(image_size=128, noise_sigma=0.0)
        for seed in range(20):
            rec = generate_scene(seed, cfg)
            bg = rec.image[0, 0]      # corner is background: boxes keep a margin
            for box, _ in rec.instances:
                x1, y1, x2, y2 = (int(box.x1), int(box.y1), int(box.x2), int(box.y2))
                crop = rec.image[y1:y2, x1:x2]
                mask = (np.abs(crop - bg) > 0.02).any(axis=2)
                measured = tight_box(mask)
                assert measured is not None
                mx1, my1, mx2, my2 = measured
                assert abs((mx1 + x1) - box.x1) <= 1.0
                assert abs((my1 + y1) - box.y1) <= 1.0
                assert abs((mx2 + x1) - box.x2) <= 1.0
                assert abs((my2 + y1) - box.y2) <= 1.0

    def test_class_ids_in_range(self):
        cfg = DatasetConfig(image_size=64, num_classes=2)
        seen = set()
        for seed in range(40):
            for _, cid in generate_scene(seed, cfg).instances:
                seen.add(cid)
        assert seen <= {0, 1}
        assert len(seen) == 2

    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigError):
            DatasetConfig(image_size=16).validate()
        with pytest.raises(ConfigError):
            DatasetConfig(num_classes=5).validate()
        with pytest.raises(ConfigError):
            DatasetConfig(noise_sigma=-0.1).validate()
        with pytest.raises(ConfigError):
            DatasetConfig(image_size=100).validate(stride=8)


class TestSplits:
    def test_disjoint_by_construction(self):
        tr = set(train_seeds(100))
        va = set(val_seeds(50))
        assert not (tr & va)
        assert min(va) == 2 ** 32


class TestDatasetFile:
    def test_roundtrip(self, tmp_path):
        cfg = DatasetConfig(image_size=64)
        records = make_dataset(range(10), cfg)
        path = tmp_path / "scenes.tdset"
        write_dataset(records, path)
        back = read_dataset(path)
        assert len(back) == 10
        for orig, loaded in zip(records, back):
            assert loaded.seed == orig.seed
            assert np.array_equal(loaded.image, orig.image)
            assert loaded.instances == orig.instances

    def test_bytes_follow_the_layout(self, tmp_path):
        # header, then per record: u64 seed, image tensor (magic, u32 rank,
        # u32 dims, f32 payload), u32 instance count, 4 f32 + u32 per instance
        records = make_dataset(val_seeds(2), DatasetConfig(image_size=32))
        expected = b"TDSET" + struct.pack("<II", 1, 2)
        for rec in records:
            expected += struct.pack("<Q4sI3I", rec.seed, b"TNSR", 3, *rec.image.shape)
            expected += rec.image.astype("<f4").tobytes()
            expected += struct.pack("<I", len(rec.instances))
            for box, class_id in rec.instances:
                expected += struct.pack("<4fI", box.x1, box.y1, box.x2, box.y2, class_id)
        path = tmp_path / "layout.tdset"
        write_dataset(records, path)
        assert path.read_bytes() == expected

    def test_writing_holds_the_file_once(self, tmp_path):
        # 64 scenes at the default size make a 12.6 MB file; per-record
        # chunks and their join held it twice
        records = make_dataset(range(64), DatasetConfig())
        path = tmp_path / "scenes.tdset"
        tracemalloc.start()
        try:
            write_dataset(records, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * path.stat().st_size

    def test_rewriting_read_scenes_holds_the_file_once(self, tmp_path):
        # scenes read from a file decode their images one at a time while
        # they are written back over it
        path = tmp_path / "scenes.tdset"
        write_dataset(make_dataset(range(64), DatasetConfig()), path)
        records = read_dataset(path)
        tracemalloc.start()
        try:
            write_dataset(records, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * path.stat().st_size
        assert all(np.array_equal(a.image, b.image) for a, b in zip(records, read_dataset(path)))

    def test_rewrite_keeps_what_readers_read(self, tmp_path):
        cfg = DatasetConfig(image_size=32)
        path = tmp_path / "scenes.tdset"
        old = make_dataset(range(3), cfg)
        new = make_dataset(range(10, 13), cfg)
        write_dataset(old, path)
        before = read_dataset(path)
        write_dataset(new, path)
        after = read_dataset(path)
        for rec, was, now, fresh in zip(old, before, new, after):
            assert np.array_equal(was.image, rec.image)
            assert np.array_equal(fresh.image, now.image)
        assert [r.seed for r in after] == [10, 11, 12]

    def test_failed_write_leaves_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "scenes.tdset"
        write_dataset(make_dataset(range(2), DatasetConfig(image_size=32)), path)
        before = path.read_bytes()

        class FullDisk:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                raise OSError(28, "No space left on device")

        # the real open, with every write failing
        monkeypatch.setattr(scenes, "open", lambda *a, **k: FullDisk(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError):
            write_dataset(make_dataset(range(5, 7), DatasetConfig(image_size=32)), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["scenes.tdset"]

    def test_reading_decodes_no_image(self, tmp_path):
        # 64 default scenes are a 12.6 MB file; the records hold its layout
        path = tmp_path / "scenes.tdset"
        write_dataset(make_dataset(range(64), DatasetConfig()), path)
        tracemalloc.start()
        try:
            records = read_dataset(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(records) == 64
        assert held < 2 ** 20

    def test_each_read_is_a_fresh_array(self, tmp_path):
        cfg = DatasetConfig(image_size=32)
        path = tmp_path / "scenes.tdset"
        write_dataset(make_dataset(range(3), cfg), path)
        for rec in read_dataset(path):
            first, second = rec.image, rec.image
            assert first is not second
            assert first.dtype == np.float32 and first.flags.writeable
            assert rec.image_shape == first.shape
            expected = generate_scene(rec.seed, cfg).image.tobytes()
            assert first.tobytes() == expected
            first[:] = -1.0
            assert second.tobytes() == rec.image.tobytes() == expected

    def test_file_cut_after_reading(self, tmp_path):
        path = tmp_path / "scenes.tdset"
        write_dataset(make_dataset(range(2), DatasetConfig(image_size=32)), path)
        records = read_dataset(path)
        os.truncate(path, path.stat().st_size // 2)
        with pytest.raises(FormatError, match="cut short"):
            records[1].image

    def test_read_scenes_do_not_pickle(self, tmp_path):
        # the open descriptor is this process's; a worker gets the path
        path = tmp_path / "scenes.tdset"
        write_dataset(make_dataset(range(1), DatasetConfig(image_size=32)), path)
        with pytest.raises(TypeError, match="send the path"):
            pickle.dumps(read_dataset(path)[0])

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
    def test_descriptor_closed_with_the_last_scene(self, tmp_path):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        path = tmp_path / "scenes.tdset"
        write_dataset(make_dataset(range(3), DatasetConfig(image_size=32)), path)
        baseline = open_fds()
        records = read_dataset(path)
        assert open_fds() == baseline + 1
        last = records[-1]
        del records
        assert open_fds() == baseline + 1
        del last
        assert open_fds() == baseline

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.tdset"
        write_dataset([], path)
        assert read_dataset(path) == []

    def test_large_seed_survives(self, tmp_path):
        cfg = DatasetConfig(image_size=64)
        records = make_dataset(val_seeds(2), cfg)
        path = tmp_path / "val.tdset"
        write_dataset(records, path)
        assert [r.seed for r in read_dataset(path)] == [2 ** 32, 2 ** 32 + 1]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tdset"
        path.write_bytes(b"XDSET" + b"\x00" * 16)
        with pytest.raises(FormatError) as exc:
            read_dataset(path)
        assert exc.value.offset == 0

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.tdset"
        path.write_bytes(b"TDSET" + (9).to_bytes(4, "little") + (0).to_bytes(4, "little"))
        with pytest.raises(FormatError) as exc:
            read_dataset(path)
        assert exc.value.offset == 5

    def test_truncation_rejected_everywhere(self, tmp_path):
        cfg = DatasetConfig(image_size=32)
        records = make_dataset(range(2), cfg)
        path = tmp_path / "full.tdset"
        write_dataset(records, path)
        full = path.read_bytes()
        bad = tmp_path / "cut.tdset"
        # cut at several depths: inside header, image payload, instance list
        for cut in [0, 4, 10, 20, len(full) // 2, len(full) - 3]:
            bad.write_bytes(full[:cut])
            with pytest.raises(FormatError):
                read_dataset(bad)

    def test_trailing_garbage_rejected(self, tmp_path):
        cfg = DatasetConfig(image_size=32)
        path = tmp_path / "trail.tdset"
        write_dataset(make_dataset(range(1), cfg), path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_error_reports_offset(self, tmp_path):
        cfg = DatasetConfig(image_size=32)
        path = tmp_path / "cut.tdset"
        write_dataset(make_dataset(range(1), cfg), path)
        full = path.read_bytes()
        path.write_bytes(full[:14])
        with pytest.raises(FormatError) as exc:
            read_dataset(path)
        assert exc.value.offset is not None
        assert "offset" in str(exc.value)
