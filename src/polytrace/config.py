"""Run configuration: one dataclass.

Every value a run may set lives here with its default.
:meth:`RunConfig.validate` rejects only values the code cannot run; where
the paper recommends a range, a comment beside the fields gives it. A value
that every run shares is not a field but a constant in the module that
reads it, such as ``pipeline.EXPANSION_FACTOR``, ``training.BATCH_SCENES``
or ``synth.FEATURE_CHANNELS``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RunConfig:
    # contour and matching (the paper's ranges: 64-128, 0.05-0.2, 200-300, 0.5-0.7)
    n_vertices: int = 64
    peak_threshold: float = 0.2
    max_detections: int = 200
    vertex_threshold: float = 0.6

    # model sizes
    encoder_width: int = 128
    center_hidden: int = 32
    offset_hidden: int = 32

    # optimization: an initialization-only phase, then the whole network,
    # with two 1/5 learning-rate decays
    optimizer: str = "momentum"
    learning_rate: float = 0.01
    epochs_total: int = 12
    epochs_init: int = 2
    decay_epoch_1: int = 8
    decay_epoch_2: int = 11

    # synthetic data
    frame_width: int = 128
    frame_height: int = 128
    min_buildings: int = 1
    max_buildings: int = 4
    size_min: float = 20.0
    size_max: float = 48.0
    noise_sigma: float = 2.5

    seed: int = 7

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.n_vertices < 4 or self.n_vertices % 4 != 0:
            raise ValueError(f"n_vertices = {self.n_vertices} must be at least 4 and divisible by 4")
        if not 0 <= self.peak_threshold < 1:
            raise ValueError(f"peak_threshold = {self.peak_threshold} must lie in [0, 1)")
        if not 0 <= self.vertex_threshold <= 1:
            raise ValueError(f"vertex_threshold = {self.vertex_threshold} must lie in [0, 1]")
        if self.max_detections < 1:
            raise ValueError(f"max_detections = {self.max_detections} must be at least 1")
        if not self.learning_rate >= 0:
            raise ValueError(f"learning_rate = {self.learning_rate} must not be negative")
        if self.optimizer not in ("momentum", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 1 <= self.min_buildings <= self.max_buildings:
            raise ValueError(
                f"building counts {self.min_buildings}..{self.max_buildings} need"
                " 1 <= min_buildings <= max_buildings"
            )

    @property
    def frame_dims(self) -> tuple:
        return self.frame_width, self.frame_height
