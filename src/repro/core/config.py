"""PERCIVAL configuration and its ``PERCIVAL_*`` knobs.

The ``configured_*`` functions here are the only readers of a
``PERCIVAL_*`` variable, and all follow one rule: an explicit value (a
:class:`PercivalConfig` or :class:`ServeSettings` field) wins, else the
environment variable, else the default.  README "Scaling knobs" lists
every knob.  :func:`resolve_tier` turns the serve stack's tier
arguments into tier objects by the same rule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, asdict

from repro.nn.quantize import validate_precision


@dataclass(frozen=True)
class PercivalConfig:
    """Configuration of the classifier + blocker stack.

    ``input_size=224, width=1.0`` is the paper's shipping model;
    experiments default to the reduced profile (32 px, quarter width)
    which trains at laptop scale — the architecture is identical.
    """

    input_size: int = 32
    width: float = 0.25
    in_channels: int = 4
    seed: int = 0
    ad_threshold: float = 0.5      # P(ad) above which a frame blocks
    epochs: int = 12
    num_train_ads: int = 1500
    num_train_nonads: int = 1500
    #: virtual per-image classification cost used by the render
    #: experiments; None -> measure the real model's latency once.
    calibrated_latency_ms: float | None = None
    #: worker processes for sharded batch inference; None defers to the
    #: ``PERCIVAL_WORKERS`` environment knob (see
    #: :func:`configured_worker_count`).  0 disables sharding entirely
    #: and reproduces the single-process fast path.
    num_workers: int | None = None
    #: smallest memo-miss batch ``PercivalBlocker.decide_many`` will
    #: scatter across the worker pool; smaller batches stay in-process
    #: (scatter/gather IPC would cost more than it saves).
    shard_min_batch: int = 32
    #: storage precision of the inference weight artifact
    #: (``fp32``/``fp16``/``int8``); None defers to the
    #: ``PERCIVAL_PRECISION`` environment knob (see
    #: :func:`configured_precision`).  Compute stays fp32 either way —
    #: this selects what ships, persists, and stays resident.
    precision: str | None = None
    #: calibration gate: maximum P(ad) drift vs. the fp32 reference a
    #: quantized artifact may show on the held-out calibration batch
    #: before the precision is rejected (falls back to fp32).
    quantization_drift_tolerance: float = 1e-2
    #: enable the :mod:`repro.cascade` confidence router in front of
    #: the serving stack; None defers to the ``PERCIVAL_CASCADE``
    #: environment knob (see :func:`configured_cascade_enabled`).
    #: Off reproduces the pre-cascade pipeline bit for bit.
    cascade_enabled: bool | None = None
    #: minimum model confidence ``max(P(ad), 1 - P(ad))`` a verdict
    #: needs before the cascade compiles it into a micro-rule.
    cascade_confidence: float = 0.9
    #: enable the :mod:`repro.diff` incremental re-classification layer
    #: (per-session snapshot/diff with verdict inheritance); None defers
    #: to the ``PERCIVAL_DIFF`` environment knob (see
    #: :func:`configured_diff_enabled`).  Off reproduces the pre-diff
    #: pipeline bit for bit.
    diff_enabled: bool | None = None

    @classmethod
    def paper(cls) -> "PercivalConfig":
        """The full-size configuration of Figure 3 (224x224x4)."""
        return cls(input_size=224, width=1.0)

    def cache_key(self) -> dict:
        """Stable dict identifying a trained-model cache entry."""
        payload = asdict(self)
        # deployment knobs: they do not affect the trained weights
        payload.pop("calibrated_latency_ms")
        payload.pop("ad_threshold")
        payload.pop("num_workers")
        payload.pop("shard_min_batch")
        payload.pop("precision")
        payload.pop("quantization_drift_tolerance")
        payload.pop("cascade_enabled")
        payload.pop("cascade_confidence")
        payload.pop("diff_enabled")
        return payload


@dataclass(frozen=True)
class ServeSettings:
    """Micro-batching knobs of the :mod:`repro.serve` layer.

    These are pure deployment knobs — they decide how independent
    classification requests coalesce into batches, never what any
    verdict is — so they live outside :class:`PercivalConfig` and the
    model cache key entirely.
    """

    #: flush a batch as soon as it reaches this many unique requests
    max_batch: int = 16
    #: ... or as soon as the oldest queued request has waited this long
    max_wait_ms: float = 4.0
    #: admission limit: requests queued beyond this depth are shed
    #: (explicit backpressure, never silent loss)
    max_depth: int = 128
    #: virtual compute lanes the serve loop may overlap flushes on.
    #: ``None`` means auto: the ``PERCIVAL_SERVE_LANES`` environment
    #: knob if set, else the attached worker pool's capacity, else 1
    #: (see :func:`configured_serve_lanes`).
    lanes: int | None = None
    #: starvation-free aging: a queued request's effective priority
    #: improves one level for every ``aging_ms`` it has waited, so a
    #: flood of viewport frames can delay below-the-fold frames but
    #: never starve them.
    aging_ms: float = 8.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_depth < self.max_batch:
            raise ValueError(
                "max_depth must be >= max_batch (a full batch must be "
                "admissible)"
            )
        if self.lanes is not None and self.lanes < 1:
            raise ValueError("lanes must be >= 1 (or None for auto)")
        if self.aging_ms <= 0:
            raise ValueError("aging_ms must be > 0")




# ----------------------------------------------------------------------
# Knob resolution: the one place a PERCIVAL_* variable is read
# ----------------------------------------------------------------------
_ON_OFF = {
    "off": False, "0": False, "false": False, "no": False,
    "on": True, "1": True, "true": True, "yes": True,
}


def _on_off(raw: str) -> bool:
    if raw not in _ON_OFF:
        raise ValueError(f"expected 'on' or 'off', got {raw!r}")
    return _ON_OFF[raw]


def _auto_or_int(raw: str) -> int | None:
    return None if raw == "auto" else int(raw)


def _chaos_seed(raw: str) -> int | None:
    # 0 is a valid seed, so "0" is not in the off vocabulary
    if raw in ("off", "false", "no", "none"):
        return None
    if raw in ("on", "true", "yes"):
        return 0
    return int(raw)


def _at_least(low: int):
    """Check for integer knobs; ``None`` (auto) passes through."""

    def check(value):
        if value is None:
            return None
        if int(value) < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return int(value)

    return check


def _workers(value: int | None) -> int:
    # auto = cores minus one (one core stays with the renderer); a
    # negative count clamps to 0, which disables sharding
    if value is None:
        value = (os.cpu_count() or 1) - 1
    return max(int(value), 0)


def _resolve(var: str, explicit, parse, default, check=lambda value: value):
    """The knob rule: ``explicit`` if given (the environment is then not
    read), else ``parse`` of the ``var`` environment variable (stripped,
    lower-cased), else ``default``; unset and empty both mean the
    default.  ``check`` validates or normalizes whichever applied.  A
    value either step rejects raises ``ValueError`` naming ``var``."""
    value = explicit
    try:
        if value is None:
            raw = os.environ.get(var, "").strip().lower()
            value = parse(raw) if raw else default
        return check(value)
    except ValueError as exc:
        raise ValueError(f"invalid {var}: {exc}") from exc


def configured_worker_count(explicit: int | None = None) -> int:
    """``PERCIVAL_WORKERS`` (``auto`` or an integer; default ``auto`` =
    cores minus one): worker processes for sharded inference, 0 =
    sharding off.  ``explicit`` is ``PercivalConfig.num_workers``."""
    return _resolve("PERCIVAL_WORKERS", explicit, _auto_or_int, None, _workers)


def configured_serve_settings(
    explicit: ServeSettings | None = None,
) -> ServeSettings:
    """``PERCIVAL_SERVE_MAX_BATCH``/``_MAX_WAIT_MS``/``_MAX_DEPTH``/
    ``_AGING_MS`` as :class:`ServeSettings`; an ``explicit`` settings
    object wins outright.  ``lanes`` stays auto (see
    :func:`configured_serve_lanes`)."""
    if explicit is not None:
        return explicit
    return ServeSettings(
        max_batch=_resolve("PERCIVAL_SERVE_MAX_BATCH", None, int,
                           ServeSettings.max_batch),
        max_wait_ms=_resolve("PERCIVAL_SERVE_MAX_WAIT_MS", None, float,
                             ServeSettings.max_wait_ms),
        max_depth=_resolve("PERCIVAL_SERVE_MAX_DEPTH", None, int,
                           ServeSettings.max_depth),
        aging_ms=_resolve("PERCIVAL_SERVE_AGING_MS", None, float,
                          ServeSettings.aging_ms),
    )


def configured_serve_lanes(explicit: int | None = None) -> int | None:
    """``PERCIVAL_SERVE_LANES`` (``auto`` or an integer >= 1; default
    ``auto``): virtual compute lanes, ``None`` for auto — the serve loop
    then sizes its lanes from the worker pool's capacity (1 without a
    pool).  ``explicit`` is ``ServeSettings.lanes``."""
    return _resolve(
        "PERCIVAL_SERVE_LANES", explicit, _auto_or_int, None, _at_least(1)
    )


def configured_cascade_enabled(explicit: bool | None = None) -> bool:
    """``PERCIVAL_CASCADE`` (on/off; default off): the
    :mod:`repro.cascade` confidence router.  ``explicit`` is
    ``PercivalConfig.cascade_enabled``."""
    return _resolve("PERCIVAL_CASCADE", explicit, _on_off, False, bool)


def configured_diff_enabled(explicit: bool | None = None) -> bool:
    """``PERCIVAL_DIFF`` (on/off; default off): the :mod:`repro.diff`
    snapshot/diff tier.  ``explicit`` is ``PercivalConfig.diff_enabled``."""
    return _resolve("PERCIVAL_DIFF", explicit, _on_off, False, bool)


def configured_diff_capacity(explicit: int | None = None) -> int:
    """``PERCIVAL_DIFF_CAPACITY`` (integer >= 1; default 512):
    ``(session, page)`` snapshots the differ's LRU store keeps."""
    return _resolve(
        "PERCIVAL_DIFF_CAPACITY", explicit, int, 512, _at_least(1)
    )


def configured_chaos_seed() -> int | None:
    """``PERCIVAL_CHAOS`` (off, ``on`` = seed 0, or an integer seed;
    default off): the :meth:`~repro.resilience.ChaosSchedule.seeded`
    seed, ``None`` for no chaos."""
    return _resolve("PERCIVAL_CHAOS", None, _chaos_seed, None)


def configured_resilience_enabled() -> bool:
    """``PERCIVAL_RESILIENCE`` (on/off; default off): the breaker/ladder
    plane.  An active chaos schedule implies it regardless."""
    return _resolve("PERCIVAL_RESILIENCE", None, _on_off, False)


def configured_respawn_budget(explicit: int | None = None) -> int:
    """``PERCIVAL_RESPAWN_BUDGET`` (integer >= 0; default 16): worker
    replacements a pool may perform over its lifetime (initial spawns
    and resize growth are free; 0 = never replace a dead worker)."""
    return _resolve(
        "PERCIVAL_RESPAWN_BUDGET", explicit, int, 16, _at_least(0)
    )


def configured_precision(explicit: str | None = None) -> str:
    """``PERCIVAL_PRECISION`` (``fp32``/``fp16``/``int8``; default
    ``fp32``): storage precision of the weight artifact.  ``explicit``
    is ``PercivalConfig.precision``."""
    return _resolve(
        "PERCIVAL_PRECISION", explicit, str, "fp32", validate_precision
    )


def resolve_tier(
    tier: str,
    value: object,
    config: PercivalConfig,
    chaos_active: bool = False,
):
    """Normalize one tier argument of the serve stack: ``tier`` is
    ``"cascade"``, ``"differ"``, ``"chaos"`` or ``"resilience"``.

    ``False`` pins the tier off (the bit-identical path without it); an
    instance of the tier's type is used as is; ``None`` builds the
    default tier when its knob is on — ``config.cascade_enabled`` /
    ``config.diff_enabled`` over the environment for the first two, the
    environment alone for chaos, and resilience also whenever
    ``chaos_active`` (a chaos replay without breakers or the ladder
    would only measure unmitigated damage).  Anything else raises
    ``TypeError``.
    """
    # leaf imports: the tier packages build on core, not the reverse
    from repro.cascade.router import CascadeRouter
    from repro.diff.differ import FrameDiffer
    from repro.resilience.chaos import ChaosSchedule
    from repro.resilience.plane import ResiliencePlane

    kind = {
        "cascade": CascadeRouter,
        "differ": FrameDiffer,
        "chaos": ChaosSchedule,
        "resilience": ResiliencePlane,
    }[tier]
    if value is False:
        return None
    if isinstance(value, kind):
        return value
    if value is not None:
        raise TypeError(
            f"{tier} must be a {kind.__name__}, None (auto), or False (off)"
        )
    if tier == "cascade":
        if configured_cascade_enabled(config.cascade_enabled):
            return CascadeRouter.with_default_filterlist(
                confidence=config.cascade_confidence
            )
    elif tier == "differ":
        if configured_diff_enabled(config.diff_enabled):
            return FrameDiffer(capacity=configured_diff_capacity())
    elif tier == "chaos":
        seed = configured_chaos_seed()
        if seed is not None:
            return ChaosSchedule.seeded(seed)
    elif chaos_active or configured_resilience_enabled():
        return ResiliencePlane()
    return None
