"""Bitmap preprocessing."""

import numpy as np
import pytest
from scipy import ndimage

from repro.core.preprocessing import preprocess_batch, preprocess_bitmap
from repro.utils.resize import resize_bitmap


class TestPreprocessBitmap:
    def test_output_shape(self, rng):
        bitmap = rng.random((50, 30, 4)).astype(np.float32)
        tensor = preprocess_bitmap(bitmap, 32)
        assert tensor.shape == (4, 32, 32)

    def test_rgb_gets_alpha(self, rng):
        bitmap = rng.random((20, 20, 3)).astype(np.float32)
        tensor = preprocess_bitmap(bitmap, 16)
        assert tensor.shape == (4, 16, 16)
        # alpha channel normalized from 1.0 -> 1.0 after centering
        assert np.allclose(tensor[3], (1.0 - 0.5) * 2.0)

    def test_normalized_range(self, rng):
        bitmap = rng.random((20, 20, 4)).astype(np.float32)
        tensor = preprocess_bitmap(bitmap, 16)
        assert tensor.min() >= -1.0 - 1e-5
        assert tensor.max() <= 1.0 + 1e-5

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            preprocess_bitmap(np.zeros((4, 4)), 16)

    def test_bad_channels_rejected(self):
        with pytest.raises(ValueError):
            preprocess_bitmap(np.zeros((4, 4, 2)), 16)

    def test_paper_input_size_supported(self, rng):
        bitmap = rng.random((300, 250, 4)).astype(np.float32)
        tensor = preprocess_bitmap(bitmap, 224)
        assert tensor.shape == (4, 224, 224)


class TestPreprocessBatch:
    def test_stacks(self, rng):
        bitmaps = [
            rng.random((10 + i, 20, 4)).astype(np.float32)
            for i in range(3)
        ]
        batch = preprocess_batch(bitmaps, 16)
        assert batch.shape == (3, 4, 16, 16)

    def test_empty_batch(self):
        batch = preprocess_batch([], 16)
        assert batch.shape == (0, 4, 16, 16)


def _reference_resize(img, height, width):
    """The resize the kernel replaces: scipy's corner-aligned bilinear
    zoom with edge clamp, cropped or edge-padded to the exact size,
    then clipped."""
    if img.shape[0] == height and img.shape[1] == width:
        return img.astype(np.float32, copy=True)
    zoom = (height / img.shape[0], width / img.shape[1], 1.0)
    out = ndimage.zoom(img, zoom, order=1, mode="nearest")
    out = out[:height, :width]
    if out.shape[0] < height or out.shape[1] < width:
        pad = ((0, height - out.shape[0]), (0, width - out.shape[1]), (0, 0))
        out = np.pad(out, pad, mode="edge")
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def _reference_shapes(count=300, seed=7):
    """Seeded (input shape, target) cases: 1-pixel edges, RGB input,
    up- and down-sampling to the network sizes and to odd targets."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        h, w = (int(v) for v in rng.integers(1, 300, size=2))
        if k % 7 == 0:
            h = 1
        if k % 11 == 0:
            w = 1
        channels = 3 if k % 4 == 0 else 4
        size = (16, 32, 64, 224)[k % 4]
        target = (size, size)
        if k % 5 == 0:
            target = tuple(int(v) for v in rng.integers(1, 80, size=2))
        cases.append(((h, w, channels), target))
    return cases


class TestResizeMatchesZoom:
    """The kernel reproduces ndimage.zoom(order=1, mode="nearest") bit
    for bit, so the training corpus and the committed weights built
    from it do not move."""

    @staticmethod
    def _assert_bitwise(got, want):
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape
        # uint32 views also tell -0.0 from +0.0
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_resize_matches_reference(self):
        rng = np.random.default_rng(11)
        for k, (shape, (th, tw)) in enumerate(_reference_shapes()):
            img = rng.random(shape)
            if k % 9 == 0:  # out of range: the clip must match too
                img = img * 3.0 - 1.0
            if k % 13:  # the rest stay float64
                img = img.astype(np.float32)
            got = resize_bitmap(img, th, tw)
            assert got.shape == (th, tw, shape[2])
            self._assert_bitwise(got, _reference_resize(img, th, tw))

    def test_resize_into_a_strided_view(self, rng):
        img = rng.random((45, 70, 4)).astype(np.float32)
        chw = np.full((4, 32, 32), np.nan, dtype=np.float32)
        resize_bitmap(img, 32, 32, out=chw.transpose(1, 2, 0))
        self._assert_bitwise(
            chw, _reference_resize(img, 32, 32).transpose(2, 0, 1).copy()
        )

    def test_preprocess_matches_reference(self):
        rng = np.random.default_rng(12)
        for shape, (size, _) in _reference_shapes(count=60, seed=8):
            bitmap = rng.random(shape).astype(np.float32)
            rgba = bitmap
            if shape[2] == 3:
                alpha = np.ones(shape[:2] + (1,), dtype=np.float32)
                rgba = np.concatenate([bitmap, alpha], axis=2)
            want = (_reference_resize(rgba, size, size).transpose(2, 0, 1)
                    - 0.5) * 2.0
            self._assert_bitwise(preprocess_bitmap(bitmap, size), want)

    def test_identity_size_is_an_unclipped_copy(self, rng):
        img = (rng.random((16, 16, 4)) * 2.0).astype(np.float32)
        tensor = preprocess_bitmap(img, 16)
        assert np.array_equal(tensor, (img.transpose(2, 0, 1) - 0.5) * 2.0)


class TestBatchEqualsSingle:
    def test_batch_rows_bitwise_equal_single(self):
        rng = np.random.default_rng(13)
        bitmaps = [
            rng.random(shape).astype(np.float32)
            for shape, _ in _reference_shapes(count=40, seed=9)
        ] + [rng.random((32, 32, 4)).astype(np.float32)]
        batch = preprocess_batch(bitmaps, 32)
        assert batch.shape == (len(bitmaps), 4, 32, 32)
        for i, bitmap in enumerate(bitmaps):
            assert np.array_equal(batch[i], preprocess_bitmap(bitmap, 32))

    def test_bad_frame_in_batch_rejected(self, rng):
        good = rng.random((10, 10, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            preprocess_batch([good, np.zeros((4, 4, 2))], 16)
