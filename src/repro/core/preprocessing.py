"""Bitmap preprocessing for the classifier.

The paper's pipeline: "PERCIVAL reads the image, scales it
to 224x224x4 ..., creates a tensor, and passes it through the CNN"
(§3.3).  Preprocessing accepts whatever the decode step hands over —
RGBA or RGB, any spatial size — and produces the fixed-size CHW tensor
the network expects, normalized to zero-centered range.  The scaling
is ``repro.utils.resize.resize_bitmap``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.resize import resize_bitmap

#: Normalization: decoded pixels are [0, 1]; center to [-1, 1].
_CENTER = 0.5
_SCALE = 2.0


def _with_alpha(bitmap: np.ndarray) -> np.ndarray:
    """Validate a decoded bitmap; give RGB an opaque alpha channel."""
    if bitmap.ndim != 3:
        raise ValueError("expected (H, W, C) bitmap")
    if bitmap.shape[2] == 3:
        alpha = np.ones(bitmap.shape[:2] + (1,), dtype=bitmap.dtype)
        return np.concatenate([bitmap, alpha], axis=2)
    if bitmap.shape[2] != 4:
        raise ValueError(f"unsupported channel count {bitmap.shape[2]}")
    return bitmap


def preprocess_bitmap(bitmap: np.ndarray, input_size: int) -> np.ndarray:
    """One decoded bitmap (H, W, C) -> network tensor (4, S, S)."""
    return preprocess_batch([bitmap], input_size)[0]


def preprocess_batch(
    bitmaps: Sequence[np.ndarray], input_size: int
) -> np.ndarray:
    """Preprocess decoded bitmaps into one NCHW batch."""
    batch = np.empty((len(bitmaps), 4, input_size, input_size),
                     dtype=np.float32)
    for i, bitmap in enumerate(bitmaps):
        # each frame lands in its batch slot, seen channel-last
        resize_bitmap(_with_alpha(bitmap), input_size, input_size,
                      out=batch[i].transpose(1, 2, 0))
    batch -= _CENTER
    batch *= _SCALE
    return batch
