import math

import numpy as np
import pytest
import scipy.special
from scipy import ndimage

from polytrace import detection, evaluation, losses, pipeline, reduction, synth, training
from polytrace import evolution as evo
from polytrace.assignment import hungarian, match_cost
from polytrace.geometry import (
    ANCHOR_DIRECTIONS,
    as_polygon,
    bbox_center,
    bounding_box,
    expand_mask,
    normalize_orientation,
    pairwise_distances,
    rasterize,
    vertex_angle,
)
from polytrace.pipeline import PipelineParams


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_convex_polygon(rng, n_points=12, scale=60.0, offset=(70.0, 70.0)):
    """Convex hull of uniform points; returns a counterclockwise-by-angle ring."""
    pts = rng.uniform(-scale / 2, scale / 2, size=(n_points, 2)) + np.asarray(offset)
    hull = convex_hull(pts)
    if hull.shape[0] < 3:
        return random_convex_polygon(rng, n_points, scale, offset)
    return hull


def convex_hull(points):
    """Andrew's monotone chain, returning hull vertices in CCW (math) order."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if pts.shape[0] < 3:
        return pts

    def cross2(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross2(out[-1] - out[-2], p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def point_segment_distance(points, a, b):
    """Distance from each point to segment ab."""
    points = np.atleast_2d(points)
    ab = b - a
    denom = max(float(ab @ ab), 1e-300)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


def points_to_ring_distance(points, ring):
    """Distance from each point to the closed polyline through ring."""
    d = np.full(np.atleast_2d(points).shape[0], np.inf)
    for a, b in zip(ring, np.roll(ring, -1, axis=0)):
        d = np.minimum(d, point_segment_distance(points, a, b))
    return d


def sample_ring(ring, step=0.05):
    """Dense boundary samples, roughly `step` apart along every edge."""
    out = []
    for a, b in zip(ring, np.roll(ring, -1, axis=0)):
        length = np.linalg.norm(b - a)
        k = max(int(np.ceil(length / step)), 1)
        f = np.arange(k)[:, None] / k
        out.append(a * (1 - f) + b * f)
    return np.vstack(out)


def hausdorff_between_rings(ring_a, ring_b, step=0.05):
    """Symmetric Hausdorff distance between two closed polylines (sampled oracle)."""
    sa = sample_ring(ring_a, step)
    sb = sample_ring(ring_b, step)
    d_ab = points_to_ring_distance(sa, ring_b).max()
    d_ba = points_to_ring_distance(sb, ring_a).max()
    return max(float(d_ab), float(d_ba))


def central_difference(f, x, h=1e-5, kinks=None):
    """Central finite-difference gradient of scalar f at array x.

    ``kinks``, if given, maps an array to a tuple of arrays that fix which
    piece of a piecewise-smooth f the array lies on, such as ReLU masks and
    max-pool argmaxes. Where x+h or x-h lands on another piece than x, a
    difference across the kink says nothing about the gradient, so that
    coordinate's step is halved until both land on x's piece; a coordinate
    that still crosses at a step of 1e-8 fails with an AssertionError.
    """
    h_min = 1e-8
    x = np.array(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    at_x = None if kinks is None else kinks(x)
    for i in range(flat.size):
        orig = flat[i]
        step = h
        while True:
            sides = []
            for value in (orig + step, orig - step):
                flat[i] = value
                sides.append((f(x), None if kinks is None else kinks(x)))
            flat[i] = orig
            (fp, kp), (fm, km) = sides
            if kinks is None or all(
                np.array_equal(u, v) for side in (kp, km) for u, v in zip(at_x, side, strict=True)
            ):
                break
            assert step > h_min, f"coordinate {i} crosses a kink at every step down to {h_min}"
            step = max(step / 2.0, h_min)
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def relative_error(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def flipped_kernel(kernel):
    """The (*window, C_out, C_in) kernel whose zero-padded convolution of an
    output gradient is the input gradient of the zero-padded convolution
    with the (*window, C_in, C_out) ``kernel``."""
    return np.flip(kernel, axis=tuple(range(kernel.ndim - 2))).swapaxes(-1, -2)


def tap_slices(k, d, n):
    """Where the k taps of a size-k window of dilation d read an axis of n
    positions padded by (k-1)//2*d on each side: tap t reads
    ``padded[t*d : t*d + n]``, so output m sees input m + (t - (k-1)//2)*d.
    The circular encoder's windows pad by wrapping, the grid heads' by
    zeros; the oracles of both read their taps here."""
    return [slice(t * d, t * d + n) for t in range(k)]


def nine_tap_conv(x, w, b):
    """Zero-padded 3x3 convolution of an (H, W, C_in) grid with a
    (3, 3, C_in, C_out) kernel, one tap at a time."""
    h, wd, _ = x.shape
    padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.tile(b, (h, wd, 1))
    for dy, rows in enumerate(tap_slices(3, 1, h)):
        for dx, cols in enumerate(tap_slices(3, 1, wd)):
            out += padded[rows, cols] @ w[dy, dx]
    return out


def nine_tap_backward(d_out, x, w):
    """Gradients (d_x, d_w, d_b) of :func:`nine_tap_conv`, one tap at a time."""
    h, wd, cin = x.shape
    padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    d_padded = np.zeros_like(padded)
    d_w = np.zeros_like(w)
    flat_dout = d_out.reshape(-1, w.shape[-1])
    for dy, rows in enumerate(tap_slices(3, 1, h)):
        for dx, cols in enumerate(tap_slices(3, 1, wd)):
            d_w[dy, dx] = padded[rows, cols].reshape(-1, cin).T @ flat_dout
            d_padded[rows, cols] += d_out @ w[dy, dx].T
    return d_padded[1:-1, 1:-1], d_w, d_out.sum(axis=(0, 1))


def as_float64(params):
    """A copy of ``params`` with every array cast to float64, so the
    evolution network computes in float64."""
    return PipelineParams(**{name: arr.astype(np.float64) for name, arr in params.arrays()})


def reference_evolution_forward(features, params):
    """``evolution.forward`` with the fuse layer applied to each vertex's
    features concatenated with its contour's broadcast pooled vector;
    ``forward`` must agree to rounding. The cache holds the concatenation."""
    x = np.asarray(features, dtype=params.up_w.dtype)
    cache = {"features": x}
    z0 = x @ params.up_w.T + params.up_b
    f0 = np.maximum(z0, 0.0)
    cache["z0"], cache["f0"] = z0, f0
    f_prev = f0
    for name, d in evo.DILATIONS.items():
        z = evo.conv(f_prev, getattr(params, f"{name}_w"), getattr(params, f"{name}_b"), d)
        f_prev = f_prev + np.maximum(z, 0.0)
        cache[f"{name}_z"], cache[f"{name}_out"] = z, f_prev
    pooled = f_prev.max(axis=1)
    cat = np.concatenate([f_prev, np.broadcast_to(pooled[:, None, :], f_prev.shape)], axis=2)
    z4 = cat @ params.fuse_w.T + params.fuse_b
    f4 = np.maximum(z4, 0.0)
    cache.update(pooled_argmax=f_prev.argmax(axis=1), cat=cat, z4=z4, f4=f4)
    offsets = f4 @ params.step_w.T + params.step_b
    probs = scipy.special.softmax(f4 @ params.cls_w.T + params.cls_b, axis=-1)
    return offsets, probs, cache


def reference_valid_logit_grad(probs, d_valid):
    """The logit gradient of a (..., 2) softmax ``probs`` whose valid class,
    the last, has the upstream gradient ``d_valid``: the zero-padded
    (..., 2) probability gradient through the softmax's Jacobian-vector
    product, in the dtype of ``probs * d_valid``."""
    d_probs = np.zeros(probs.shape, dtype=np.result_type(probs, d_valid))
    d_probs[..., 1] = d_valid
    inner = (d_probs * probs).sum(axis=-1, keepdims=True)
    return probs * (d_probs - inner)


def reference_evolution_backward(cache, params, d_offsets=None, d_logits=None):
    """``evolution.backward`` of :func:`reference_evolution_forward`'s cache:
    the fuse layer's gradients from the concatenated input."""
    f4 = cache["f4"]
    b, n, width = f4.shape
    grads = {}
    d_f4 = 0.0
    for head, d_head in (("step", d_offsets), ("cls", d_logits)):
        if d_head is None:
            continue
        head_w = getattr(params, f"{head}_w")
        flat = np.asarray(d_head, dtype=head_w.dtype).reshape(-1, 2)
        grads[f"{head}_w"] = flat.T @ f4.reshape(-1, width)
        grads[f"{head}_b"] = flat.sum(axis=0)
        d_f4 = d_f4 + flat.reshape(b, n, 2) @ head_w
    d_z4 = d_f4 * (cache["z4"] > 0)
    flat_dz4 = d_z4.reshape(-1, width)
    grads["fuse_w"] = flat_dz4.T @ cache["cat"].reshape(-1, 2 * width)
    grads["fuse_b"] = flat_dz4.sum(axis=0)
    d_cat = d_z4 @ params.fuse_w
    d_f3 = d_cat[:, :, :width].copy()
    d_f3[np.arange(b)[:, None], cache["pooled_argmax"], np.arange(width)] += d_cat[:, :, width:].sum(axis=1)
    d_prev = d_f3
    layer_inputs = {"detail": cache["f0"], "local": cache["detail_out"], "global": cache["local_out"]}
    for name, d in reversed(evo.DILATIONS.items()):
        kernel = getattr(params, f"{name}_w")
        d_h = d_prev * (cache[f"{name}_z"] > 0)
        grads[f"{name}_w"], grads[f"{name}_b"] = evo.conv_weight_grad(d_h, layer_inputs[name], kernel, d)
        d_prev = d_prev + evo.conv_input_grad(d_h, kernel, d)
    flat_dz0 = (d_prev * (cache["z0"] > 0)).reshape(-1, width)
    features = cache["features"]
    grads["up_w"] = flat_dz0.T @ features.reshape(-1, features.shape[-1])
    grads["up_b"] = flat_dz0.sum(axis=0)
    return grads


def reference_densify(poly, n_vertices):
    """Points of ``geometry.densify``, one ray, one projection and one arc at
    a time; ``densify`` must give the same bits and reject the same inputs."""
    if n_vertices < 4 or n_vertices % 4 != 0:
        raise ValueError(f"vertex count {n_vertices} must be a multiple of 4")
    p = normalize_orientation(as_polygon(poly, strict=True))
    center = bbox_center(p)
    m = p.shape[0]
    e = np.roll(p, -1, axis=0) - p
    lens2 = np.maximum(np.einsum("ij,ij->i", e, e), 1e-9**2)
    anchors = []  # (idx, u, point) per direction
    for d in ANCHOR_DIRECTIONS:
        q = reference_ray_hit(p, center, d)
        u = np.clip(np.einsum("ij,ij->i", q - p, e) / lens2, 0.0, 1.0)
        proj = p + u[:, None] * e
        idx = int(np.argmin(np.linalg.norm(proj - q, axis=1)))
        uk = float(u[idx])
        if uk >= 1.0 - 1e-9:
            idx, uk = (idx + 1) % m, 0.0
        if uk <= 1e-9:
            uk, q = 0.0, p[idx]
        anchors.append((idx, uk, q))
    keys = [(idx, u, k) for k, (idx, u, _) in enumerate(anchors)]
    wraps = [keys[(k + 1) % 4] < keys[k] for k in range(4)]
    if sum(wraps) != 1:
        raise ValueError("control vertices out of cyclic order")
    pieces = []
    for k in range(4):
        (ia, _, qa), (ib, ub, qb) = anchors[k], anchors[(k + 1) % 4]
        between = p[np.arange(ia + 1, ib + (ub > 0) + m * wraps[k]) % m]
        pieces.append(reference_resample(np.vstack([qa, between, qb]), n_vertices // 4))
    return np.vstack(pieces)


def reference_ray_hit(poly, center, direction):
    """The crossing of one ray from ``center`` with the ring farthest from
    the center, one direction at a time."""
    p = as_polygon(poly)
    c = np.asarray(center, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    a = p
    b = np.roll(p, -1, axis=0)
    e = b - a
    r = a - c
    denom = d[0] * e[:, 1] - d[1] * e[:, 0]
    best_t = -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (r[:, 0] * e[:, 1] - r[:, 1] * e[:, 0]) / denom
        u = (r[:, 0] * d[1] - r[:, 1] * d[0]) / denom
    ok = (np.abs(denom) > 1e-9) & (u >= -1e-9) & (u <= 1.0 + 1e-9) & (t >= -1e-9)
    if np.any(ok):
        best_t = float(t[ok].max())
    par = np.abs(denom) <= 1e-9
    if np.any(par):
        coll = par & (np.abs(r[:, 0] * d[1] - r[:, 1] * d[0]) <= 1e-7)
        for i in np.nonzero(coll)[0]:
            for q in (a[i], b[i]):
                tq = float(np.dot(q - c, d))
                if tq >= -1e-9 and tq > best_t:
                    best_t = tq
    if not np.isfinite(best_t):
        raise ValueError("ray does not intersect the polygon boundary")
    return c + max(best_t, 0.0) * d


def reference_resample(chain, count):
    """Uniform arc-length resampling of an open chain; start kept, end dropped."""
    seg = np.linalg.norm(np.diff(chain, axis=0), axis=1)
    total = float(seg.sum())
    if total < 1e-9:
        raise ValueError("degenerate zero-length arc between control vertices")
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(count) * (total / count)
    x = np.interp(targets, cum, chain[:, 0])
    y = np.interp(targets, cum, chain[:, 1])
    return np.column_stack([x, y])


def reference_smooth_l1(pred, gt):
    """Smooth L1 of one (N, 2) ring: its value and gradient."""
    n = pred.shape[0]
    diff = pred - gt
    a = np.abs(diff)
    value = float(np.where(a < 1.0, 0.5 * diff**2, a - 0.5).sum()) / n
    return value, np.where(a < 1.0, diff, np.sign(diff)) / n


def reference_scene_loss(bundles, params, train_evolution=True):
    """``training.scene_loss`` one contour at a time: each contour's smooth
    L1, nearest points on its 10x-densified ring, corner term and
    classification written out, and its gradient rows stored into the
    batch's. ``scene_loss`` must give the same gradient bits."""
    eps, clamp = losses.LOSS_BALANCE, losses.PROB_EPS
    n_scenes = len(bundles)
    components = dict.fromkeys(("ct", "init", "e1", "e2", "cla"), 0.0)
    contours = [(ring, corners, b) for b in bundles for ring, corners in zip(b.rings, b.corners)]
    scenes = np.repeat(np.arange(n_scenes), [len(b.rings) for b in bundles])
    centers = np.concatenate([b.centers for b in bundles])
    grids = np.stack([b.features for b in bundles])
    cols = pipeline.grid_columns(grids)
    heat, c_cache = pipeline.center_forward(cols, params)
    components["ct"], d_heat = losses.focal_center_loss(heat, np.stack([b.heat_target for b in bundles]))
    grads = pipeline.center_backward(c_cache, params, d_heat)
    offsets, o_cache = pipeline.offset_forward(cols, scenes, centers, params)
    if train_evolution:
        stages, valid2, caches = pipeline.evolve_contours(grids, scenes, offsets, centers, params)
    else:
        stages = [pipeline.initial_contours(offsets, centers)]

    d_offsets = np.empty_like(offsets)
    scale = pipeline.EXPANSION_FACTOR * detection.STRIDE
    for j, (ring, _, bundle) in enumerate(contours):
        n_inst = len(bundle.rings)
        l_init, d_init = reference_smooth_l1(stages[0][j], ring)
        components["init"] += l_init / (n_inst * n_scenes)
        d_offsets[j] = (eps / n_inst * scale / n_scenes) * d_init.reshape(-1)
    grads.update(pipeline.offset_backward(o_cache, params, d_offsets))
    if not train_evolution:
        return components, grads

    _, pts1, pts2 = stages
    d_off1 = np.empty_like(pts1)
    d_off2 = np.empty_like(pts2)
    d_valid2 = np.zeros(valid2.shape)
    for j, (ring, corners, bundle) in enumerate(contours):
        w = 1.0 / (len(bundle.rings) * n_scenes)
        l_e1, d_e1 = reference_smooth_l1(pts1[j], ring)
        components["e1"] += l_e1 * w
        d_off1[j] = (eps * w) * d_e1

        pred, c = pts2[j], valid2[j].astype(float)
        n, m = pred.shape[0], corners.shape[0]
        matched = hungarian(match_cost(corners, pred, c, diagonal=float(np.hypot(*bundle.frame_dims))))
        # DML: L1 to the nearest of ten points per ring segment, and to the matched corners
        f = np.arange(10)[None, :, None] / 10.0
        dense = (ring[:, None] * (1.0 - f) + np.roll(ring, -1, axis=0)[:, None] * f).reshape(-1, 2)
        nearest = np.argmin(np.linalg.norm(pred[:, None] - dense[None], axis=2), axis=1)
        diff_b = pred - dense[nearest]
        diff_c = pred[matched] - corners
        d_e2 = np.sign(diff_b) / n
        np.add.at(d_e2, matched, np.sign(diff_c) / m)
        components["e2"] += (float(np.abs(diff_b).sum()) / n + float(np.abs(diff_c).sum()) / m) * w
        d_off2[j] = (eps * w) * d_e2

        # classification: the matched vertices and their index complement
        unmatched = np.setdiff1d(np.arange(n), matched)
        log_c = np.log(np.clip(c, clamp, 1.0 - clamp))
        log_1c = np.log(np.clip(1.0 - c, clamp, 1.0 - clamp))
        l_cla = float(-log_c[matched].sum()) + losses.INVALID_WEIGHT * float(-log_1c[unmatched].sum())
        components["cla"] += l_cla * w
        interior = (c > clamp) & (c < 1.0 - clamp)
        d_cla = np.zeros(n)
        d_cla[matched] = np.where(interior[matched], -1.0 / np.clip(c[matched], clamp, None), 0.0)
        d_cla[unmatched] = np.where(
            interior[unmatched], losses.INVALID_WEIGHT / np.clip(1.0 - c[unmatched], clamp, None), 0.0
        )
        d_valid2[j] = w * d_cla

    evolution_grads = evo.backward(caches.pop(), params, d_offsets=d_off2, d_valid=d_valid2)
    for name, g in evo.backward(caches.pop(), params, d_offsets=d_off1).items():
        evolution_grads[name] += g
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in evolution_grads.values()))
    if norm > training.EVOLUTION_GRAD_NORM_MAX:
        for g in evolution_grads.values():
            g *= training.EVOLUTION_GRAD_NORM_MAX / norm
    grads.update(evolution_grads)
    return components, grads


def reference_feature_provider(image):
    """``synth.feature_provider`` as a mean over each block, one stack of
    eight channel arrays and ``ndimage.gaussian_filter`` blurs; the feature
    grid must give the same bits."""
    img = np.asarray(image) / 255.0
    h, w = img.shape
    stride = detection.STRIDE
    pad_h = (-h) % stride
    pad_w = (-w) % stride
    if pad_h or pad_w:
        img = np.pad(img, ((0, pad_h), (0, pad_w)), mode="edge")
    rows, cols = img.shape[0] // stride, img.shape[1] // stride
    down = img.reshape(rows, stride, cols, stride).mean(axis=(1, 3))
    gy, gx = np.gradient(down)
    mag = np.hypot(gx, gy)
    xs = np.linspace(0.0, 1.0, cols) if cols > 1 else np.zeros(cols)
    ys = np.linspace(0.0, 1.0, rows) if rows > 1 else np.zeros(rows)
    coord_x, coord_y = np.meshgrid(xs, ys)
    blur1 = ndimage.gaussian_filter(down, 1.0, mode="nearest")
    blur3 = ndimage.gaussian_filter(down, 3.0, mode="nearest")
    return np.stack([down, gx, gy, mag, coord_x, coord_y, blur1, blur3], axis=2)


def reference_generate_scene(seed, spec=synth.SceneSpec()):
    """``synth.generate_scene`` placing its buildings on numpy arrays: the
    kind from ``rng.choice``, the shift from one two-element
    ``rng.uniform``, extents and boxes as arrays; ``generate_scene`` must
    give the same bits and raise for the same specs."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5CEE, int(seed)]))
    width, height = spec.frame_dims
    lo, hi = spec.n_buildings
    count = int(rng.integers(lo, hi + 1))
    mix = np.asarray(synth.SHAPE_MIX, dtype=float)
    mix = mix / mix.sum()
    buildings, boxes = [], []
    for _ in range(count):
        for _ in range(synth.MAX_TRIES):
            kind = synth.SHAPE_KINDS[int(rng.choice(len(synth.SHAPE_KINDS), p=mix))]
            poly = synth._MAKERS[kind](rng, spec)
            extent = poly.max(axis=0) - poly.min(axis=0)
            if np.any(extent + 2 * synth.MARGIN >= (width, height)):
                continue
            shift = rng.uniform(synth.MARGIN, np.array([width, height]) - synth.MARGIN - extent, size=2)
            poly = poly - poly.min(axis=0) + shift
            box = np.array(
                [poly[:, 0].min(), poly[:, 1].min(), poly[:, 0].max(), poly[:, 1].max()]
            ) + np.array([-1.0, -1.0, 1.0, 1.0]) * (synth.GAP / 2)
            if any(synth._boxes_overlap(box, other) for other in boxes):
                continue
            buildings.append(normalize_orientation(poly))
            boxes.append(box)
            break
        else:
            break
    if not buildings:
        raise ValueError(f"no building of {spec} can be placed within {synth.MAX_TRIES} attempts")
    image = np.full((height, width), rng.uniform(*synth.BACKGROUND))
    masks, origins = rasterize(buildings, width, height)
    h, w = masks.shape[1:]
    for mask, (r, c) in zip(masks, origins):
        image[r : r + h, c : c + w][mask] = rng.uniform(*synth.FOREGROUND)
    if spec.noise_sigma > 0:
        image = image + rng.normal(0.0, spec.noise_sigma, size=image.shape)
    image = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    return synth.SyntheticScene(image, buildings, int(seed))


def reference_decode_peaks(heatmap, threshold, top_k):
    """(position, score) pairs of the peaks ``detection.decode_peaks``
    returns, with the threshold checked inside a per-peak loop after the
    top_k cut, and each position at its cell's full-resolution center."""
    heat = np.asarray(heatmap, dtype=float)
    neighborhood = ndimage.maximum_filter(heat, size=3, mode="constant", cval=-np.inf)
    peaks = np.nonzero(heat >= neighborhood)
    values = heat[peaks]
    flat = peaks[0] * heat.shape[1] + peaks[1]
    order = np.lexsort((flat, -values))[:top_k]
    out = []
    for idx in order:
        score = float(values[idx])
        if score <= threshold:
            continue
        row, col = int(peaks[0][idx]), int(peaks[1][idx])
        position = np.array([(col + 0.5) * detection.STRIDE, (row + 0.5) * detection.STRIDE])
        out.append((position, score))
    return out


def reference_reduce(sc, t):
    """``reduction.reduce`` with a greedy NMS walk over every vertex and
    angle pruning on arrays, its neighbour angles from ``np.dot``;
    ``reduce`` must give the same bits."""
    if len(sc) < 3:
        raise ValueError("contour needs at least 3 scored vertices")
    pts, scores = sc.points, sc.scores
    radius = float(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).mean()) / 2.0
    kept = reduction.threshold_vertices(scores, t)
    if len(kept) < 3:
        kept = reduction._top3(scores)
    kept = kept[reference_vertex_nms(pts[kept], scores[kept], radius)]
    if len(kept) < 3:
        kept = reduction._top3(scores)
        kept = kept[reference_vertex_nms(pts[kept], scores[kept], 0.0)]
    return reference_prune_collinear(pts[kept])


def reference_vertex_nms(points, scores, radius):
    """``reduction.vertex_nms`` with a greedy walk over every vertex."""
    n = len(points)
    far = pairwise_distances(points, points) >= radius
    alive = np.ones(n, dtype=bool)
    keep = np.zeros(n, dtype=bool)
    for idx in np.lexsort((np.arange(n), -scores)).tolist():
        if alive[idx]:
            keep[idx] = True
            alive &= far[idx]
    return np.flatnonzero(keep)


def reference_prune_collinear(poly):
    """``reduction.prune_collinear`` on arrays, neighbour angles from
    :func:`reference_angle_or_pi`."""
    pts = np.asarray(poly, dtype=float)
    n = pts.shape[0]
    if n == 3:
        return pts.copy()
    prev = np.roll(np.arange(n), 1)
    nxt = np.roll(np.arange(n), -1)
    angles = vertex_angle(pts[prev], pts, pts[nxt])
    for _ in range(n - 3):
        worst = int(np.argmax(angles))
        if angles[worst] <= reduction.ANGLE_THRESHOLD:
            break
        angles[worst] = -np.inf
        p, q = prev[worst], nxt[worst]
        nxt[p], prev[q] = q, p
        angles[p] = reference_angle_or_pi(pts, prev[p], p, q)
        angles[q] = reference_angle_or_pi(pts, p, q, nxt[q])
    return pts[np.isfinite(angles)]


def reference_angle_or_pi(pts, prev, cur, nxt):
    """One ring position's angle from ``np.dot`` of two 2-vectors, pi where
    a neighbour coincides or the cosine is NaN."""
    a = pts[prev] - pts[cur]
    b = pts[nxt] - pts[cur]
    na, nb = math.sqrt(np.dot(a, a)), math.sqrt(np.dot(b, b))
    if na < 1e-9 or nb < 1e-9:
        return np.pi
    angle = float(np.arccos(min(max(np.dot(a, b) / (na * nb), -1.0), 1.0)))
    return np.pi if math.isnan(angle) else angle


def frame_mask(poly, width, height):
    """The (height, width) frame mask of one ring, its ``rasterize`` crop
    placed at its origin."""
    (crop,), ((r, c),) = rasterize([poly], width, height)
    mask = np.zeros((height, width), dtype=bool)
    mask[r : r + crop.shape[0], c : c + crop.shape[1]] = crop
    return mask


def reference_rasterize(poly, width, height):
    """One ring's full-frame mask over its bounding box grown by a pixel,
    its crossing rows and columns from ``searchsorted`` on the pixel
    centres; every crop of ``geometry.rasterize`` must hold the same bits."""
    if width <= 0 or height <= 0:
        raise ValueError("raster dimensions must be positive")
    p = as_polygon(poly)
    mask = np.zeros((height, width), dtype=bool)
    box = bounding_box(p)
    j0 = max(0, int(np.floor(box[0] - 1.0)))
    j1 = min(width - 1, int(np.ceil(box[2] + 1.0)))
    i0 = max(0, int(np.floor(box[1] - 1.0)))
    i1 = min(height - 1, int(np.ceil(box[3] + 1.0)))
    if j0 > j1 or i0 > i1:
        return mask
    ys = np.arange(i0, i1 + 1) + 0.5
    xs = np.arange(j0, j1 + 1) + 0.5
    (x1, y1), (x2, y2) = p.T, np.roll(p, -1, axis=0).T
    first = np.searchsorted(ys, np.minimum(y1, y2))
    counts = np.searchsorted(ys, np.maximum(y1, y2)) - first
    edge = np.repeat(np.arange(x1.size), counts)
    row = np.arange(edge.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    xint = x1[edge] + (ys[row] - y1[edge]) * (x2 - x1)[edge] / (y2 - y1)[edge]
    cols = xs.size + 1
    flips = np.bincount(row * cols + np.searchsorted(xs, xint), minlength=ys.size * cols)
    flips = flips.reshape(ys.size, cols)[:, :-1]
    mask[i0 : i1 + 1, j0 : j1 + 1] = np.cumsum(flips, axis=1, dtype=np.uint8) & 1
    return mask


def reference_boundary_band(mask, d):
    """One full-frame mask's boundary band, computed over the mask's
    bounding box framed by one background pixel."""
    m = np.asarray(mask, dtype=bool)
    band = np.zeros_like(m)
    rows = np.flatnonzero(m.any(axis=1))
    if rows.size == 0:
        return band
    cols = np.flatnonzero(m.any(axis=0))
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    crop = m[box]
    background = np.ones((crop.shape[0] + 2, crop.shape[1] + 2), dtype=bool)
    background[1:-1, 1:-1] = ~crop
    boundary = crop & expand_mask(background, 1)[1:-1, 1:-1]
    band[box] = crop & expand_mask(boundary, d)
    return band


def reference_manual_level(mask, r):
    """One full-frame mask's manual-level threshold, dilated over its
    bounding box grown by r and cut to the frame."""
    m = np.asarray(mask, dtype=bool)
    area = int(np.count_nonzero(m))
    if area == 0:
        return 0.0
    rows = np.flatnonzero(m.any(axis=1))
    cols = np.flatnonzero(m.any(axis=0))
    crop = m[max(rows[0] - r, 0) : rows[-1] + r + 1, max(cols[0] - r, 0) : cols[-1] + r + 1]
    return area / int(np.count_nonzero(expand_mask(crop, r)))


def reference_greedy_match(order, rows, n_gts: int, threshold: float):
    """The single-match greedy walk at one threshold, by a scan of each
    prediction's row: predictions in ``order`` claim the free ground truth
    of highest IoU at or above the threshold (and above 0), ties to the
    first in the row. ``rows`` holds, per prediction, the (gt_index, IoU)
    pairs of the ground truths of its image."""
    gt_taken = [False] * n_gts
    pairs = []
    for pi in order:
        best_iou, best_gt = 0.0, -1
        for gi, iou in rows[pi]:
            if not gt_taken[gi] and iou >= threshold and iou > best_iou:
                best_iou, best_gt = iou, gi
        if best_gt >= 0:
            gt_taken[best_gt] = True
            pairs.append((pi, best_gt, best_iou))
    return evaluation.MatchResult(pairs)


def reference_evaluate(preds, gts, frame_dims):
    """``evaluation.evaluate`` with a full-frame mask and band per instance
    and full-frame IoUs of every (prediction, ground truth) pair of an
    image; ``evaluate`` must report the same values."""
    ev = evaluation
    if len(gts) == 0:
        raise ValueError("evaluation needs at least one ground truth")
    width, height = frame_dims
    d = ev.boundary_distance(frame_dims)
    gt_masks = [reference_rasterize(gt.polygon, width, height) for gt in gts]
    mask_rows, band_rows = [[] for _ in preds], [[] for _ in preds]
    for pis, gis in ev._image_groups(preds, gts):
        gt_bands = {gi: reference_boundary_band(gt_masks[gi], d) for gi in gis}
        for pi in pis:
            mask = reference_rasterize(preds[pi].polygon, width, height)
            band = reference_boundary_band(mask, d)
            mask_rows[pi] = [(gi, ev.masks_iou(mask, gt_masks[gi])) for gi in gis]
            band_rows[pi] = [(gi, ev.masks_iou(band, gt_bands[gi])) for gi in gis]
    order = ev._score_order(preds)
    precision, matches = {}, {}
    for kind, rows in (("mask", mask_rows), ("boundary", band_rows)):
        matches[kind] = [reference_greedy_match(order, rows, len(gts), float(t)) for t in ev.IOU_THRESHOLDS]
        precision[kind] = [len(m.pairs) / len(preds) if preds else 0.0 for m in matches[kind]]
    pairs = matches["mask"][0].pairs
    per_gt_iou = np.zeros(len(gts))
    for _, gi, iou in pairs:
        per_gt_iou[gi] = iou
    manual = {
        r: sum(iou > reference_manual_level(gt_masks[gi], r) for _, gi, iou in pairs) / len(gts) for r in (2, 3)
    }
    return ev.EvalReport(
        ap_msk=float(np.mean(precision["mask"])),
        ap_bdy=float(np.mean(precision["boundary"])),
        manual_level_2px=manual[2],
        manual_level_3px=manual[3],
        mean_instance_iou=float(per_gt_iou.mean()),
        precision_mask=precision["mask"],
        precision_boundary=precision["boundary"],
    )
