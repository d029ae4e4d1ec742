"""Run configuration: one dataclass.

Every tunable of the pipeline lives here with its recommended default; a
handful of core parameters are range-checked against their recommended
intervals unless ``allow_nonstandard`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass

# (low, high) recommended intervals for the core parameters
RECOMMENDED_RANGES = {
    "n_vertices": (64, 128),
    "peak_threshold": (0.05, 0.2),
    "max_detections": (200, 300),
    "vertex_threshold": (0.5, 0.7),
    "match_distance_weight": (4.0, 6.0),
}


@dataclass
class RunConfig:
    # contour and matching
    n_vertices: int = 64
    peak_threshold: float = 0.2
    max_detections: int = 200
    vertex_threshold: float = 0.6
    match_distance_weight: float = 5.0
    expansion_factor: float = 10.0
    loss_balance: float = 1.0 / 3.0

    # model sizes
    feature_channels: int = 8
    encoder_width: int = 128
    center_hidden: int = 32
    offset_hidden: int = 32

    # optimization: an initialization-only phase, then the whole network,
    # with two 1/5 learning-rate decays
    optimizer: str = "momentum"
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs_total: int = 12
    epochs_init: int = 2
    decay_epoch_1: int = 8
    decay_epoch_2: int = 11
    batch_scenes: int = 2

    # synthetic data
    frame_width: int = 128
    frame_height: int = 128
    min_buildings: int = 1
    max_buildings: int = 4
    size_min: float = 20.0
    size_max: float = 48.0
    noise_sigma: float = 2.5

    seed: int = 7
    allow_nonstandard: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.n_vertices % 4 != 0:
            raise ValueError("n_vertices must be divisible by 4")
        if self.optimizer not in ("momentum", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not self.allow_nonstandard:
            for key, (lo, hi) in RECOMMENDED_RANGES.items():
                value = getattr(self, key)
                if not lo <= value <= hi:
                    raise ValueError(
                        f"{key} = {value} outside the recommended range [{lo}, {hi}]"
                        " (pass allow_nonstandard=True to override)"
                    )

    @property
    def frame_dims(self) -> tuple:
        return self.frame_width, self.frame_height
