"""Bilinear bitmap resize: the scaling step before inference.

PERCIVAL "scales [the image] to 224x224x4 ..., creates a tensor, and
passes it through the CNN" (§3.3).  The scaling is corner-aligned
bilinear interpolation with edge clamp: output pixel ``i`` of an axis
samples input coordinate ``i * (n_in - 1) / (n_out - 1)``, so each
output pixel is a weighted sum of at most four input pixels.

The arithmetic is that of ``scipy.ndimage.zoom(order=1,
mode="nearest")``, bit for bit: each of the four terms is
``(pixel * row_weight) * col_weight`` in float64, summed in zoom's
neighbourhood order and rounded once to float32.  The training corpus
and every served frame are scaled here, so a model retrained from this
code sees exactly the pixels the committed weights were trained on.

Only numpy is imported: both ``repro.core`` (preprocessing, Grad-CAM)
and ``repro.synth`` (ad synthesis) use this module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

#: Per-axis tap tables kept, one per (n_in, n_out).  Frame shapes come
#: from web pages and repeat; synthesized frames are at most 72 px a
#: side, so one target size needs at most 72 entries.
_TAP_CACHE_SIZE = 256


@lru_cache(maxsize=_TAP_CACHE_SIZE)
def _axis_taps(n_in: int, n_out: int) -> Tuple[np.ndarray, np.ndarray]:
    """Source indices and weights resizing one axis from ``n_in`` to
    ``n_out``: ``(2 * n_out,)`` arrays, lower taps then upper taps.

    Zoom samples ``round(n_in * (n_out / n_in))`` points at ``k *
    zoom`` with ``zoom = (n_in - 1) / (points - 1)``; the last point may
    round past ``n_in - 1`` and keeps its tiny upper weight on the
    clamped edge pixel.  The lower weight is ``1 - frac`` and the upper
    one ``1 - lower``, as zoom computes them.  The grid is cropped, or
    padded by repeating its last point, to ``n_out`` points.
    """
    n_grid = int(round(n_in * (n_out / n_in)))
    zoom = (n_in - 1) / (n_grid - 1) if n_grid > 1 else 1.0
    coords = np.arange(n_grid, dtype=np.float64) * zoom
    floor = np.floor(coords)
    lower_weight = 1.0 - (coords - floor)
    upper_weight = 1.0 - lower_weight
    lower = np.minimum(floor.astype(np.intp), n_in - 1)
    upper = np.minimum(lower + 1, n_in - 1)
    keep = np.minimum(np.arange(n_out), n_grid - 1)
    indices = np.concatenate([lower[keep], upper[keep]])
    weights = np.concatenate([lower_weight[keep], upper_weight[keep]])
    indices.flags.writeable = False
    weights.flags.writeable = False
    return indices, weights


def resize_bitmap(
    img: np.ndarray, height: int, width: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Resize an (H, W, C) bitmap to (height, width, C) float32,
    clipped to [0, 1].

    A bitmap already at the target size is copied unchanged (no clip).
    ``out``, if given, is any writable (height, width, C) view (e.g. a
    channel-first batch slot transposed) and receives the result.
    """
    h, w, channels = img.shape
    if out is None:
        out = np.empty((height, width, channels), dtype=np.float32)
    if h == height and w == width:
        out[...] = img
        return out
    rows, row_weights = _axis_taps(h, height)
    cols, col_weights = _axis_taps(w, width)
    # (2*height, 2*width*C): every tap of every output pixel, one term
    # per element; the row weight multiplies first, as in zoom
    taps = img.take(rows, axis=0).take(cols, axis=1)
    terms = taps.reshape(2 * height, -1).astype(np.float64)
    terms *= row_weights[:, None]
    terms *= np.repeat(col_weights, channels)
    quads = terms.reshape(2, height, 2, width, channels)
    acc = quads[0, :, 0] + quads[0, :, 1]
    acc += quads[1, :, 0]
    acc += quads[1, :, 1]
    # zoom's sum starts at +0.0, which turns a -0.0 sum positive; the
    # float32 rounding and the clip happen in a contiguous array
    pixels = np.add(acc, 0.0, dtype=np.float32, casting="same_kind")
    np.clip(pixels, 0.0, 1.0, out=pixels)
    out[...] = pixels
    return out
