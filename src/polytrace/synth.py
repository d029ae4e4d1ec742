"""Synthetic scenes and the handcrafted stride-4 feature grid.

Scenes are grayscale rasters of bright, non-overlapping buildings
(rectangles, rotated rectangles, L-shapes) on a dark background with
additive noise; everything is a pure function of the seed, so datasets are
reproducible bit for bit.

The feature grid stands in for a learned backbone: 8 channels of
downsampled intensity, central-difference gradients, gradient magnitude,
normalized coordinates and two Gaussian blurs. Channel order is fixed:
the head weights of a fitted model read the channels by position.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .detection import STRIDE, grid_shape
from .geometry import normalize_orientation, rasterize

SHAPE_KINDS = ("rect", "rot_rect", "l_shape")
SHAPE_MIX = (0.45, 0.30, 0.25)  # probabilities of SHAPE_KINDS
MARGIN = 6.0                    # min distance from a building to the frame edge
GAP = 6.0                       # min gap between building bounding boxes
BACKGROUND = (25.0, 55.0)       # uniform range of the background gray level
FOREGROUND = (150.0, 230.0)     # uniform range of each building's gray level
MAX_TRIES = 200                 # placement attempts per building before giving up
FEATURE_CHANNELS = 8            # channels of the feature grid, which the model's first layers read


@dataclass(frozen=True)
class SyntheticScene:
    image: np.ndarray            # (H, W) uint8 grayscale
    buildings: list              # list of (M, 2) clockwise polygons
    seed: int


@dataclass(frozen=True)
class SceneSpec:
    """Knobs for scene generation; defaults suit 128 x 128 frames."""

    frame_dims: tuple = (128, 128)
    n_buildings: tuple = (1, 4)
    size_range: tuple = (20.0, 48.0)
    noise_sigma: float = 2.5


def _make_rect(rng, spec):
    w = rng.uniform(*spec.size_range)
    h = rng.uniform(*spec.size_range)
    return np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])


def _make_rot_rect(rng, spec):
    rect = _make_rect(rng, spec)
    theta = rng.uniform(0.0, np.pi / 2)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return rect @ rot.T


def _make_l_shape(rng, spec):
    w = rng.uniform(*spec.size_range)
    h = rng.uniform(*spec.size_range)
    # notch below half the side keeps the bbox center inside the polygon,
    # which anchored densification requires
    cw = w * rng.uniform(0.3, 0.45)
    ch = h * rng.uniform(0.3, 0.45)
    ring = np.array(
        [[0.0, 0.0], [w - cw, 0.0], [w - cw, ch], [w, ch], [w, h], [0.0, h]]
    )
    corner = int(rng.integers(0, 4))
    if corner in (1, 3):
        ring = ring * [-1.0, 1.0] + [w, 0.0]
    if corner in (2, 3):
        ring = ring * [1.0, -1.0] + [0.0, h]
    return ring


_MAKERS = {"rect": _make_rect, "rot_rect": _make_rot_rect, "l_shape": _make_l_shape}


def _choice_cdf(mix) -> list:
    """The cumulative distribution that ``Generator.choice(len(mix), p=...)``
    draws from for the probabilities ``mix`` normalized to sum 1, built as
    it builds it: a right bisect of one ``rng.random()`` in it picks the
    index that ``choice`` picks from the same draw."""
    p = np.asarray(mix, dtype=float)
    p = p / p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


_KIND_CDF = _choice_cdf(SHAPE_MIX)


def generate_scene(seed: int, spec: SceneSpec = SceneSpec()) -> SyntheticScene:
    """Deterministic scene: placed buildings, filled raster, additive noise.

    A building that finds no place without overlap within ``MAX_TRIES``
    attempts ends the placement: the scene keeps the buildings placed
    before it. Raises ValueError, naming the spec, when the first building
    cannot be placed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5CEE, int(seed)]))
    width, height = spec.frame_dims
    lo, hi = spec.n_buildings
    count = int(rng.integers(lo, hi + 1))

    buildings = []
    boxes = []  # (xmin, ymin, xmax, ymax) inflated by GAP/2
    for _ in range(count):
        for _ in range(MAX_TRIES):
            kind = SHAPE_KINDS[bisect.bisect_right(_KIND_CDF, rng.random())]
            poly = _MAKERS[kind](rng, spec)
            xs, ys = poly.T.tolist()
            x0, y0 = min(xs), min(ys)
            ex, ey = max(xs) - x0, max(ys) - y0
            if ex + 2 * MARGIN >= width or ey + 2 * MARGIN >= height:
                continue
            # rng.uniform(MARGIN, high, size=2) with high = (width, height) - MARGIN - extent
            sx = MARGIN + ((width - MARGIN) - ex - MARGIN) * rng.random()
            sy = MARGIN + ((height - MARGIN) - ey - MARGIN) * rng.random()
            # rounding is monotone, so poly - (x0, y0) + (sx, sy) spans exactly
            # [sx, ex + sx] by [sy, ey + sy]
            box = (sx - GAP / 2, sy - GAP / 2, (ex + sx) + GAP / 2, (ey + sy) + GAP / 2)
            if any(_boxes_overlap(box, other) for other in boxes):
                continue
            buildings.append(normalize_orientation(poly - (x0, y0) + (sx, sy)))
            boxes.append(box)
            break
        else:  # no place found: keep the buildings placed so far
            break
    if not buildings:
        raise ValueError(f"no building of {spec} can be placed within {MAX_TRIES} attempts")

    image = np.full((height, width), rng.uniform(*BACKGROUND))
    masks, origins = rasterize(buildings, width, height)
    h, w = masks.shape[1:]
    for mask, (r, c) in zip(masks, origins):
        image[r : r + h, c : c + w][mask] = rng.uniform(*FOREGROUND)
    if spec.noise_sigma > 0:
        image = image + rng.normal(0.0, spec.noise_sigma, size=image.shape)
    image = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    return SyntheticScene(image, buildings, int(seed))


def _boxes_overlap(a, b):
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def feature_provider(image) -> np.ndarray:
    """Handcrafted stride-4 feature grid, shape (H/4, W/4, FEATURE_CHANNELS).

    Channels: block-mean intensity, x/y central-difference gradients,
    gradient magnitude, normalized x/y coordinates spanning [0, 1], and
    Gaussian blurs of the intensity at sigma 1 and 3 grid cells. The image
    is 2-D uint8, read as intensity / 255; any other shape or dtype raises
    ValueError, and so does an image under 5 px along an axis, whose grid has
    one cell there and no central difference.

    Every bit is fixed, because a fitted model reads it: the block mean
    sums each block's columns, then its rows, then divides by 16, the order
    ``mean(axis=(1, 3))`` sums in (another order rounds differently), and
    each blur is the row pass then the column pass of
    ``ndimage.gaussian_filter1d`` that ``ndimage.gaussian_filter`` runs.
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"feature_provider reads 2-D grayscale images, got an image of shape {img.shape}")
    if img.dtype != np.uint8:
        raise ValueError(f"feature_provider reads uint8 images, got dtype {img.dtype}")
    h, w = img.shape
    if min(h, w) <= STRIDE:
        raise ValueError(
            f"feature_provider needs at least {STRIDE + 1} px along each axis, got an image of shape {img.shape}"
        )
    rows, cols = grid_shape((w, h))
    img = img / 255.0
    if img.shape != (rows * STRIDE, cols * STRIDE):
        img = np.pad(img, ((0, rows * STRIDE - h), (0, cols * STRIDE - w)), mode="edge")
    down = img.reshape(rows, STRIDE, cols, STRIDE).sum(axis=3).sum(axis=1) / STRIDE**2

    grid = np.empty((rows, cols, FEATURE_CHANNELS))
    grid[..., 0] = down
    grid[..., 2], grid[..., 1] = np.gradient(down)
    np.hypot(grid[..., 1], grid[..., 2], out=grid[..., 3])
    grid[..., 4:6] = _coordinate_channels(rows, cols)
    for channel, sigma in ((6, 1.0), (7, 3.0)):
        blur = grid[..., channel]
        ndimage.gaussian_filter1d(down, sigma, axis=0, output=blur, mode="nearest")
        ndimage.gaussian_filter1d(blur, sigma, axis=1, output=blur, mode="nearest")
    return grid


@functools.lru_cache(maxsize=8)
def _coordinate_channels(rows: int, cols: int) -> np.ndarray:
    """Read-only (rows, cols, 2) normalized x and y of each grid cell."""
    xs = np.linspace(0.0, 1.0, cols) if cols > 1 else np.zeros(cols)
    ys = np.linspace(0.0, 1.0, rows) if rows > 1 else np.zeros(rows)
    coords = np.stack(np.meshgrid(xs, ys), axis=2)
    coords.flags.writeable = False
    return coords
