from dataclasses import fields

import numpy as np
import pytest

from polytrace.config import RunConfig

SMALLEST = float(np.nextafter(0.0, 1.0))  # the smallest positive double

# (field, side) -> (the value at that end of the range the code runs, the
# nearest value beyond it that the other checks accept)
BOUNDS = {
    ("n_vertices", "low"): (4, 0),
    ("peak_threshold", "low"): (0.0, -SMALLEST),
    ("peak_threshold", "high"): (float(np.nextafter(1.0, 0.0)), 1.0),
    ("max_detections", "low"): (1, 0),
    ("vertex_threshold", "low"): (0.0, -SMALLEST),
    ("vertex_threshold", "high"): (1.0, float(np.nextafter(1.0, 2.0))),
    ("learning_rate", "low"): (0.0, -SMALLEST),
}


def test_vertex_count_not_divisible_by_four_rejected():
    with pytest.raises(ValueError, match="divisible by 4"):
        RunConfig(n_vertices=66)


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError, match="sgd"):
        RunConfig(optimizer="sgd")


@pytest.mark.parametrize("key, side", list(BOUNDS))
def test_value_just_outside_recommended_range(key, side):
    # the paper's recommended ranges are comments; what is checked is the range the code runs
    with pytest.raises(ValueError, match=key):
        RunConfig(**{key: BOUNDS[key, side][1]})


@pytest.mark.parametrize("key", sorted({key for key, _ in BOUNDS}))
def test_range_ends_accepted(key):
    for (name, _), (bound, _) in BOUNDS.items():
        if name == key:
            assert getattr(RunConfig(**{key: bound}), key) == bound


def test_learning_rate_nan_rejected():
    with pytest.raises(ValueError, match="learning_rate"):
        RunConfig(learning_rate=float("nan"))


@pytest.mark.parametrize("counts", [(0, 1), (0, 0), (-1, 4), (3, 2)])
def test_building_counts_need_one_to_max(counts):
    low, high = counts
    with pytest.raises(ValueError, match="min_buildings"):
        RunConfig(min_buildings=low, max_buildings=high)


@pytest.mark.parametrize("cap", [0, -1])
def test_max_detections_needs_one(cap):
    # decode_peaks keeps its first max_detections candidates: 0 keeps none, -1 all but the lowest
    with pytest.raises(ValueError, match="max_detections"):
        RunConfig(max_detections=cap)


def test_equal_building_counts_accepted():
    assert RunConfig(min_buildings=1, max_buildings=1).max_buildings == 1


def test_field_names_are_pinned():
    # a new knob is a new configuration to test and benchmark: add it here on purpose
    assert [f.name for f in fields(RunConfig)] == [
        "n_vertices", "peak_threshold", "max_detections", "vertex_threshold",
        "encoder_width", "center_hidden", "offset_hidden",
        "optimizer", "learning_rate", "epochs_total", "epochs_init", "decay_epoch_1", "decay_epoch_2",
        "frame_width", "frame_height", "min_buildings", "max_buildings",
        "size_min", "size_max", "noise_sigma",
        "seed",
    ]


def test_frame_dims_is_width_then_height():
    assert RunConfig(frame_width=96, frame_height=64).frame_dims == (96, 64)
