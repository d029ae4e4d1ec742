from dataclasses import fields

import numpy as np
import pytest

from polytrace.config import RECOMMENDED_RANGES, RunConfig


def just_outside(key, side):
    """The nearest value beyond one end of a recommended interval that the
    other checks accept: a multiple of 4 for n_vertices, the next integer for
    the other integers, the adjacent double for floats."""
    lo, hi = RECOMMENDED_RANGES[key]
    bound, sign = (lo, -1) if side == "low" else (hi, 1)
    if isinstance(bound, int):
        return bound + sign * (4 if key == "n_vertices" else 1)
    return float(np.nextafter(bound, sign * np.inf))


def test_vertex_count_not_divisible_by_four_rejected():
    with pytest.raises(ValueError, match="divisible by 4"):
        RunConfig(n_vertices=66)
    with pytest.raises(ValueError, match="divisible by 4"):
        RunConfig(n_vertices=66, allow_nonstandard=True)


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError, match="sgd"):
        RunConfig(optimizer="sgd")


@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize("key", sorted(RECOMMENDED_RANGES))
def test_value_just_outside_recommended_range(key, side):
    value = just_outside(key, side)
    with pytest.raises(ValueError, match="allow_nonstandard") as info:
        RunConfig(**{key: value})
    assert key in str(info.value)
    assert getattr(RunConfig(**{key: value}, allow_nonstandard=True), key) == value


@pytest.mark.parametrize("key", sorted(RECOMMENDED_RANGES))
def test_range_ends_accepted(key):
    for bound in RECOMMENDED_RANGES[key]:
        assert getattr(RunConfig(**{key: bound}), key) == bound


@pytest.mark.parametrize("counts", [(0, 1), (0, 0), (-1, 4), (3, 2)])
def test_building_counts_need_one_to_max(counts):
    low, high = counts
    for allow in (False, True):
        with pytest.raises(ValueError, match="min_buildings"):
            RunConfig(min_buildings=low, max_buildings=high, allow_nonstandard=allow)


@pytest.mark.parametrize("cap", [0, -1])
def test_max_detections_needs_one(cap):
    # decode_peaks keeps its first max_detections candidates: 0 keeps none, -1 all but the lowest
    for allow in (False, True):
        with pytest.raises(ValueError, match="max_detections"):
            RunConfig(max_detections=cap, allow_nonstandard=allow)


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
        "seed", "allow_nonstandard",
    ]


def test_frame_dims_is_width_then_height():
    assert RunConfig(frame_width=96, frame_height=64).frame_dims == (96, 64)
