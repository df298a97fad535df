"""Dataset loaders and generators: format errors, determinism, OOD construction."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from pvit.data import (
    Dataset,
    load_idx,
    make_ood,
    normalize,
    split_dataset,
    stripe_parameters,
    synth_dataset,
)
from pvit.errors import FormatError, ShapeError


def write_idx_pair(tmp_path, images, labels=None):
    """Handcrafted big-endian IDX fixture files."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes())
    lbl_path = None
    if labels is not None:
        labels = np.asarray(labels, dtype=np.uint8)
        lbl_path = tmp_path / "labels.idx"
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes())
    return str(img_path), None if lbl_path is None else str(lbl_path)


class TestLoadIdx:
    def test_two_image_fixture(self, tmp_path):
        imgs = np.zeros((2, 28, 28), dtype=np.uint8)
        imgs[0, 0, 0] = 255
        imgs[1, 3, 4] = 128
        ip, lp = write_idx_pair(tmp_path, imgs, [3, 1])
        ds = load_idx(ip, lp)
        assert ds.images.shape == (2, 28, 28, 1)
        assert ds.images[0, 0, 0, 0] == 1.0
        assert ds.images[1, 3, 4, 0] == 128 / 255
        assert list(ds.labels) == [3, 1]

    def test_wrong_magic_names_value(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000999, 1, 2, 2) + bytes(4))
        with pytest.raises(FormatError, match="0x00000999"):
            load_idx(str(path))

    def test_label_count_mismatch(self, tmp_path):
        imgs = np.zeros((3, 4, 4), dtype=np.uint8)
        ip, _ = write_idx_pair(tmp_path, imgs)
        lbl = tmp_path / "short.idx"
        lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(2))
        with pytest.raises(FormatError, match="2 labels for 3 images"):
            load_idx(ip, str(lbl))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 4, 4) + bytes(10))
        with pytest.raises(FormatError, match="truncated"):
            load_idx(str(path))

    def test_trailing_image_bytes_rejected(self, tmp_path):
        ip, _ = write_idx_pair(tmp_path, np.zeros((3, 4, 4), dtype=np.uint8))
        with open(ip, "ab") as fh:
            fh.write(bytes(5))
        with pytest.raises(FormatError, match="5 trailing bytes") as info:
            load_idx(ip)
        assert ip in str(info.value)

    def test_trailing_label_bytes_rejected(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((3, 4, 4), dtype=np.uint8), [0, 1, 2])
        with open(lp, "ab") as fh:
            fh.write(bytes(7))
        with pytest.raises(FormatError, match="7 trailing bytes") as info:
            load_idx(ip, lp)
        assert lp in str(info.value)

    @pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0)])
    def test_zero_row_or_column_count_rejected(self, tmp_path, rows, cols):
        path = tmp_path / "flat.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 3, rows, cols))
        with pytest.raises(FormatError, match="zero row or column count") as info:
            load_idx(str(path))
        assert str(path) in str(info.value)

    def test_count_beyond_file_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2**31, 1, 1))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated payload") as info:
                load_idx(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(info.value)
        assert peak < 2**20  # the declared 2 GiB is never asked for


class TestSynth:
    def test_same_seed_bit_identical(self):
        a = synth_dataset(3, 5, size=16, seed=42)
        b = synth_dataset(3, 5, size=16, seed=42)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_zero_sigma_identical_within_class(self):
        ds = synth_dataset(2, 4, size=16, noise_sigma=0.0, seed=1)
        for c in range(2):
            imgs = ds.images[ds.labels == c]
            assert np.all(imgs == imgs[0])

    def test_class_patterns_pairwise_distinct(self):
        ds = synth_dataset(4, 1, size=28, noise_sigma=0.0, seed=0)
        for i in range(4):
            for j in range(i + 1, 4):
                d = np.linalg.norm(ds.images[i] - ds.images[j])
                assert d > 0.5, f"classes {i},{j} nearly identical"

    def test_pixels_in_unit_range(self):
        ds = synth_dataset(3, 10, size=16, noise_sigma=0.5, seed=3)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    @pytest.mark.parametrize("seed", [-1, 1.5, "1"])
    def test_seed_that_is_not_a_non_negative_integer_is_refused(self, seed):
        """-1 used to end in numpy's bare ValueError, and 1.5 ran as seed 1."""
        with pytest.raises(ShapeError, match=f"seed must be a non-negative integer, got {seed!r}"):
            synth_dataset(2, 1, size=4, seed=seed)

    @pytest.mark.parametrize("build, shape", [
        (lambda: synth_dataset(4, 10**15), (4 * 10**15, 28, 28, 1)),
        (lambda: make_ood("pattern-shift", 10**16, classes=2), (10**16, 28, 28, 1)),
        (lambda: make_ood("uniform-noise", 10**16), (10**16, 28, 28, 1)),
    ], ids=["synth", "pattern-shift", "uniform-noise"])
    def test_a_shape_no_array_takes_is_refused_naming_it(self, build, shape):
        """numpy refuses these sizes before allocating anything: its bare
        "array is too big" ValueError used to escape."""
        with pytest.raises(ShapeError, match=re.escape(f"no array takes shape {shape}")):
            build()


class TestMakeOod:
    def test_uniform_noise_mean(self):
        ds = make_ood("uniform-noise", 1000, seed=9, size=16)
        assert abs(ds.images.mean() - 0.5) <= 0.01

    def test_inverted_is_involution(self):
        src = synth_dataset(2, 3, size=16, seed=5)
        once = make_ood("inverted", len(src), source=src)
        twice = Dataset("again", 1.0 - once.images)
        np.testing.assert_allclose(twice.images, src.images, atol=1e-15)

    def test_pattern_shift_parameters_disjoint(self):
        k = 4
        id_freqs = [stripe_parameters(c, k)[0] for c in range(k)]
        ood_freqs = [stripe_parameters(c, k, shifted=True)[0] for c in range(k)]
        assert max(id_freqs) < min(ood_freqs)

    def test_pattern_shift_takes_the_noise_level(self):
        """The shifted stripes carry the pixel noise they are given, 0.2 by
        default as for the ID sets, and none at 0."""
        clean = make_ood("pattern-shift", 6, seed=4, size=8, classes=2, noise_sigma=0.0)
        base = synth_dataset(2, 3, size=8, noise_sigma=0.0, shifted=True)
        np.testing.assert_array_equal(clean.images, base.images)
        default = make_ood("pattern-shift", 6, seed=4, size=8, classes=2)
        np.testing.assert_array_equal(default.images, make_ood("pattern-shift", 6, seed=4, size=8, classes=2,
                                                               noise_sigma=0.2).images)
        noisy = make_ood("pattern-shift", 6, seed=4, size=8, classes=2, noise_sigma=1.5)
        spread = [np.abs(ds.images - base.images).mean() for ds in (default, noisy)]
        assert 0 < spread[0] < spread[1]

    def test_unknown_kind(self):
        with pytest.raises(FormatError, match="unknown OOD kind"):
            make_ood("blur", 10)

    def test_inverted_requires_source(self):
        with pytest.raises(FormatError, match="source"):
            make_ood("inverted", 10)


class TestNormalize:
    def test_identity(self):
        ds = synth_dataset(2, 2, size=8, seed=7)
        out = normalize(ds, 0.0, 1.0)
        np.testing.assert_array_equal(out.images, ds.images)
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert out.ids == ds.ids

    def test_constant_image(self):
        ds = Dataset("const", np.full((1, 4, 4, 1), 0.75))
        out = normalize(ds, 0.5, 2.0)
        np.testing.assert_allclose(out.images, (0.75 - 0.5) / 2.0)

    def test_round_trip(self):
        ds = synth_dataset(2, 2, size=8, seed=8)
        back = normalize(ds, 0.13, 0.71).images * 0.71 + 0.13
        np.testing.assert_allclose(back, ds.images, atol=1e-12)

    def test_zero_std_rejected(self):
        ds = synth_dataset(2, 1, size=8, seed=8)
        with pytest.raises(FormatError):
            normalize(ds, 0.0, 0.0)


class TestSplit:
    def test_disjoint_and_reproducible(self):
        ds = synth_dataset(2, 20, size=8, seed=4)
        tr1, te1 = split_dataset(ds, 30, seed=17)
        tr2, te2 = split_dataset(ds, 30, seed=17)
        assert set(tr1.ids).isdisjoint(te1.ids)
        assert set(tr1.ids) | set(te1.ids) == set(ds.ids)
        assert tr1.ids == tr2.ids and te1.ids == te2.ids
        assert tr1.images.tobytes() == tr2.images.tobytes()
        assert tr1.name == "synth-train" and te1.name == "synth-test"
        np.testing.assert_array_equal(tr1.labels, [ds.labels[ds.ids.index(sid)] for sid in tr1.ids])
