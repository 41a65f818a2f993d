"""Grad-CAM salience maps (Figure 4, §5.6).

Grad-CAM (Selvaraju et al.) weighs a convolutional layer's activation
channels by the spatially-pooled gradient of the class score and ReLUs
the weighted sum into a coarse salience map.  The paper uses it to show
the network attends to ad cues (AdChoices marker, text outlines,
product shapes).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.classifier import AdClassifier
from repro.core.preprocessing import preprocess_bitmap
from repro.models.percivalnet import LABEL_AD
from repro.utils.resize import resize_bitmap


class GradCam:
    """Salience-map extractor over a trained classifier."""

    def __init__(self, classifier: AdClassifier) -> None:
        self.classifier = classifier
        self.network = classifier.network

    def available_layers(self) -> list:
        """Indices of feature-producing layers (stem conv + fires)."""
        return list(self.network.feature_indices)

    def salience(
        self,
        bitmap: np.ndarray,
        layer: Optional[int] = None,
        target_class: int = LABEL_AD,
    ) -> np.ndarray:
        """Salience map in [0, 1] at the bitmap's spatial size.

        ``layer`` is an index into the network's layer list; defaults to
        the last fire module (the paper inspects "Layer 5" and "Layer 9"
        of its stack).
        """
        if layer is None:
            layer = self.network.feature_indices[-1]
        if layer not in self.network.feature_indices:
            raise ValueError(
                f"layer {layer} is not a feature layer; "
                f"choose from {self.network.feature_indices}"
            )

        tensor = preprocess_bitmap(
            bitmap, self.classifier.config.input_size
        )[None, ...]

        self.network.eval()
        self.network.capture([layer])
        logits = self.network.forward(tensor)
        activations = self.network.captured(layer)
        if activations is None:  # pragma: no cover - defensive
            raise RuntimeError("activation capture failed")

        one_hot = np.zeros_like(logits)
        one_hot[0, target_class] = 1.0
        for param in self.network.parameters():
            param.zero_grad()
        grad_at_layer = self.network.backward_from(one_hot, layer)

        # channel weights: global-average-pooled gradients
        weights = grad_at_layer.mean(axis=(2, 3))[0]          # (C,)
        cam = np.maximum(
            (weights[:, None, None] * activations[0]).sum(axis=0), 0.0
        )
        peak = cam.max()
        if peak > 0:
            cam = cam / peak
        resized = resize_bitmap(
            cam[:, :, None].astype(np.float32),
            bitmap.shape[0], bitmap.shape[1],
        )
        self.network.capture([])
        return resized[..., 0]

    def cue_mass(
        self, bitmap: np.ndarray, region: tuple, layer: Optional[int] = None
    ) -> float:
        """Fraction of salience mass inside ``region`` (x, y, w, h).

        Used by the Figure 4 analysis to check quantitatively that
        salience concentrates on cue regions (e.g. the AdChoices corner).
        """
        cam = self.salience(bitmap, layer=layer)
        total = float(cam.sum())
        if total <= 0:
            return 0.0
        x, y, w, h = region
        return float(cam[y:y + h, x:x + w].sum()) / total
