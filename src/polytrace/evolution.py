"""Contour-evolution micro-network.

Per-vertex features (sampled grid channels plus relative coordinates) run
through a circular 1-D convolution encoder that aggregates detail-to-global
context: an up-dimensioning 1x1 layer, then three circular layers with
residual shortcuts, then a fuse layer that adds a global max-pooled vector
back onto every vertex. Two pointwise heads emit the per-vertex coordinate
offsets (the step head) and the logits of a two-class softmax whose second
class is a valid vertex, a corner (the cls head). Only this module knows
that: :func:`forward` returns the valid probability and :func:`backward`
takes its gradient.
The weights are the ``up_*`` to ``cls_*`` fields of
:class:`pipeline.PipelineParams`, whose ``layout`` gives their shapes;
:func:`forward` and :func:`backward` read them from that one object.

The three circular layers, ``detail``, ``local`` and ``global``, have kernel
sizes 3, 9 and 5 (:meth:`pipeline.PipelineParams.layout`) and read their
taps 1, 1 and 5 vertices apart (:data:`DILATIONS`), so each output vertex
sees 1, 4 and 10 vertices to either side. The global layer reaches as far
as 21 adjacent taps would, as Deep Snake's dilated circular convolutions do
(Peng et al., CVPR 2020, arXiv:2001.01629), at a quarter of their
multiply-adds.

The encoder's :func:`conv` is circular over the vertex axis: each layer
builds its im2col columns as one contiguous array, one ``np.take`` of
cached circular indices, and runs one 2-D GEMM. Every kernel is stored in
the layout that GEMM reads, ``(*window, D_in, D_out)``, so
:func:`kernel_matrix` is a free view and :func:`kernel_grad` returns the
weight gradient in the kernel's own C-contiguous layout; the 3x3 heads of
:mod:`pipeline` use both on their own im2col columns. The input gradient
is one GEMM against the transposed view whose column gradients are added
back onto the vertices tap by tap.

The fuse layer is a 1x1 layer over each vertex's features f and its
contour's pooled vector p, ``fuse_w @ [f, p] + fuse_b``, computed as its two
halves: ``fuse_w[:, :W] @ f`` per vertex, one GEMM over every vertex of the
batch, plus ``fuse_w[:, W:] @ p + fuse_b`` once per contour. At width W it
costs W^2 multiply-adds per vertex per round, not the 2*W^2 of a
concatenated input, so the encoder's forward costs about 18*W^2 (3, 9 and
5 W^2 for the circular layers). Backward takes the pooled half's weight and
input gradients from the per-contour sums of the output gradient, which
saves 2*W^2 of its 38*W^2.

Every array is a (B, N, D) batch: :func:`vertex_features` samples a stack
of feature grids, each contour the grid of its own scene, and computes
relative coordinates for B contours of N vertices at once, and one
:func:`forward` call runs all of them, so the contours of an image in
inference, and of every scene of a training step, are evolved as one
tensor. Forward passes cache the activations :func:`backward` needs, which
produces exact reverse-mode gradients for the parameters it reaches. The
im2col columns of the convolutions are not cached: backward rebuilds them
from each layer's cached input. Nor is the pooled argmax, which only
backward reads: forward pools with a max, and backward takes the argmax of
the cached global layer output.

The network computes in the dtype of its parameters: :func:`forward` casts
the vertex features, and :func:`backward` the upstream gradients, to it, and
every activation, cache entry and gradient keeps it. The model stores these
arrays as float32, which halves the bytes each GEMM moves; the
finite-difference tests pass float64 parameters.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import softmax

from .detection import STRIDE

# layer -> dilation of its circular kernel: its taps read vertices this far
# apart.
DILATIONS = {"detail": 1, "local": 1, "global": 5}


def sample_features(grids, scenes, points) -> np.ndarray:
    """Bilinear interpolation of every grid channel at stride-4 coordinates.

    ``grids`` is an (S, rows, cols, C) stack of feature grids and ``scenes``
    the integer index into it of the grid each point reads, broadcasting
    against ``points.shape[:-1]``; points are (..., 2) full-resolution
    pixels, mapped to grid coordinates by dividing by the stride and clamped
    to the grid. The result is (..., C).
    """
    g = np.asarray(grids, dtype=float)
    pts = np.asarray(points, dtype=float)
    rows, cols = g.shape[1:3]
    gx = np.clip(pts[..., 0] / STRIDE, 0.0, cols - 1.0)
    gy = np.clip(pts[..., 1] / STRIDE, 0.0, rows - 1.0)
    x0 = np.clip(np.floor(gx).astype(int), 0, max(cols - 2, 0))
    y0 = np.clip(np.floor(gy).astype(int), 0, max(rows - 2, 0))
    fx = (gx - x0)[..., None]
    fy = (gy - y0)[..., None]
    x1 = np.minimum(x0 + 1, cols - 1)
    y1 = np.minimum(y0 + 1, rows - 1)
    s = np.asarray(scenes)
    return (
        g[s, y0, x0] * (1 - fy) * (1 - fx)
        + g[s, y0, x1] * (1 - fy) * fx
        + g[s, y1, x0] * fy * (1 - fx)
        + g[s, y1, x1] * fy * fx
    )


def relative_coords(points) -> np.ndarray:
    """Coordinates regularized to [-0.5, 0.5] about each contour's bbox center.

    ``points`` is (..., N, 2); x_rel = (x - x_ct) / (x_max - x_min) with
    (x_ct, y_ct) the bounding-box midpoint of the contour, and likewise for
    y. An axis whose extent degenerates maps to zero.
    """
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=-2, keepdims=True)
    hi = pts.max(axis=-2, keepdims=True)
    extent = hi - lo
    safe = np.where(extent < 1e-12, 1.0, extent)
    return (pts - (lo + hi) / 2.0) / safe


def vertex_features(grids, scenes, points) -> np.ndarray:
    """(B, N, C+2) network inputs for a (B, N, 2) batch of contours: the
    channels sampled from grid ``scenes[b]`` of the (S, R, W, C) stack
    ``grids`` for contour b, then the two relative coordinates."""
    sampled = sample_features(grids, np.asarray(scenes)[:, None], points)
    return np.concatenate([sampled, relative_coords(points)], axis=-1)


@functools.lru_cache(maxsize=64)
def _wrap_index(n: int, k: int, d: int) -> np.ndarray:
    """(n, k) vertex indices of the circular windows of dilation d: row m
    holds m + (t - (k-1)/2)*d modulo n for taps t = 0 .. k-1, for any k and
    d, also (k-1)*d >= n, where taps alias."""
    index = (np.arange(n)[:, None] + (np.arange(k) - (k - 1) // 2) * d) % n
    index.flags.writeable = False
    return index


def _columns(x, k, d):
    """Circular im2col of a (B, N, D) batch along the vertex axis at
    dilation d: (B, N, k*D), tap-major, as one contiguous array gathered by
    one ``np.take`` of cached indices."""
    return np.take(x, _wrap_index(x.shape[-2], k, d), axis=-2).reshape(*x.shape[:-1], -1)


def kernel_matrix(kernel) -> np.ndarray:
    """(*window, D_in, D_out) kernel -> (prod(window)*D_in, D_out) GEMM
    operand, tap-major like the im2col columns; a view of a C-contiguous
    kernel."""
    return kernel.reshape(-1, kernel.shape[-1])


def conv(x, kernel, bias, d) -> np.ndarray:
    """Same-size circular cross-correlation of a (B, N, D_in) batch along
    its vertex axis at dilation d, computed in the kernel's dtype.

    ``kernel`` is (k, D_in, D_out) with odd k; output vertex n sees inputs
    n + (t - (k-1)/2)*d modulo N for t = 0 .. k-1. The columns of all
    vertices form one 2-D GEMM.
    """
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ValueError("convolution requires odd kernel sizes")
    cols = _columns(np.asarray(x, dtype=kernel.dtype), k, d)
    out = cols.reshape(-1, cols.shape[-1]) @ kernel_matrix(kernel)
    out += bias
    return out.reshape(*cols.shape[:-1], -1)


def conv_input_grad(d_out, kernel, d) -> np.ndarray:
    """Gradient of :func:`conv` at dilation d of a (B, N, D_in) input for
    that input. One GEMM against the transposed kernel view gives the column
    gradients; each tap's are added onto the vertices that tap read, a
    circular shift done as two slice additions, so no temporary larger than
    the column gradients is built."""
    k, d_in, d_out_ch = kernel.shape
    b, n, _ = d_out.shape
    d_cols = (d_out.reshape(-1, d_out_ch) @ kernel_matrix(kernel).T).reshape(b, n, k, d_in)
    d_x = np.zeros((b, n, d_in), dtype=d_cols.dtype)
    for t in range(k):
        # tap t of output vertex j read vertex j + s modulo n, for any k and d
        s = ((t - (k - 1) // 2) * d) % n
        d_x[:, s:] += d_cols[:, : n - s, t]
        d_x[:, :s] += d_cols[:, n - s :, t]
    return d_x


def conv_weight_grad(d_out, x, kernel, d):
    """Gradients (d_w, d_b) of :func:`conv` at dilation d for its kernel and
    bias, from columns rebuilt from the layer input ``x``."""
    return kernel_grad(_columns(x, kernel.shape[0], d), d_out, kernel)


def kernel_grad(cols, d_out, kernel):
    """Gradients (d_w, d_b) of a convolution whose im2col columns are
    ``cols`` (..., prod(window)*D_in) and whose output gradient is ``d_out``
    (..., D_out): one 2-D GEMM over all positions, whose result is d_w in
    the kernel's C-contiguous layout."""
    flat_dout = d_out.reshape(-1, kernel.shape[-1])
    d_w = cols.reshape(-1, cols.shape[-1]).T @ flat_dout
    return d_w.reshape(kernel.shape), flat_dout.sum(axis=0)


def _relu(x):
    return np.maximum(x, 0.0)


def forward(features, params):
    """Run the micro-network of :class:`pipeline.PipelineParams` ``params``
    on (B, N, C+2) vertex features, in the dtype of its arrays.

    Returns (offsets, valid, cache): offsets are (B, N, 2) in pixels and
    valid the (B, N) probability of the valid class of the cls head's
    softmax, which the cache keeps whole for :func:`backward`.
    """
    x = np.asarray(features, dtype=params.up_w.dtype)
    cache = {"features": x}

    z0 = x @ params.up_w.T
    z0 += params.up_b
    f0 = _relu(z0)
    cache["z0"], cache["f0"] = z0, f0

    f_prev = f0
    for name, d in DILATIONS.items():
        kernel = getattr(params, f"{name}_w")
        bias = getattr(params, f"{name}_b")
        z = conv(f_prev, kernel, bias, d)
        out = _relu(z)
        out += f_prev  # residual shortcut
        f_prev = out
        cache[f"{name}_z"], cache[f"{name}_out"] = z, out

    f3 = f_prev
    b, n, width = f3.shape
    pooled = f3.max(axis=1)
    vertex_w, pooled_w = params.fuse_w[:, :width], params.fuse_w[:, width:]
    # the pooled half is one (1, W) row product per contour, stacked, so that
    # a contour's bits do not depend on how many contours share the batch
    per_contour = pooled[:, None, :] @ pooled_w.T
    per_contour += params.fuse_b
    z4 = (f3.reshape(-1, width) @ vertex_w.T).reshape(b, n, width)
    z4 += per_contour
    f4 = _relu(z4)
    cache.update(z4=z4, f4=f4)

    offsets = f4 @ params.step_w.T
    offsets += params.step_b
    logits = f4 @ params.cls_w.T
    logits += params.cls_b
    probs = cache["probs"] = softmax(logits, axis=-1)
    return offsets, probs[..., 1], cache


def backward(cache, params, d_offsets=None, d_valid=None):
    """Reverse-mode gradients for the micro-network's parameters, from the
    (B, N, 2) gradient of :func:`forward`'s offsets and the (B, N) gradient
    of its valid probabilities.

    Returns a dict mapping the names of the parameters the given upstream
    gradients reach to arrays of their shapes and dtypes: a head without an
    upstream gradient gets no entry.
    """
    f4 = cache.get("f4")
    if f4 is None:
        raise ValueError("backward requires the cache of a prior forward pass")
    b, n, width = f4.shape
    grads = {}
    d_logits = None
    if d_valid is not None:
        # the softmax backward of the probability gradient (0, g), in the dtype of g * probs
        probs, g = cache["probs"], np.asarray(d_valid)
        g_valid = g * probs[..., 1]
        d_logits = np.stack([0.0 - g_valid, g - g_valid], axis=-1)
        d_logits *= probs
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
    # every vertex of a contour adds the same pooled term, whose gradient is
    # the sum of theirs
    d_per_contour = d_z4.sum(axis=1)
    f3 = cache["global_out"]
    argmax, pooled = f3.argmax(axis=1), f3.max(axis=1)
    vertex_w, pooled_w = params.fuse_w[:, :width], params.fuse_w[:, width:]
    grads["fuse_w"] = np.concatenate([flat_dz4.T @ f3.reshape(-1, width), d_per_contour.T @ pooled], axis=1)
    grads["fuse_b"] = d_per_contour.sum(axis=0)

    d_f3 = (flat_dz4 @ vertex_w).reshape(b, n, width)
    d_pooled = d_per_contour @ pooled_w
    b_idx = np.arange(b)[:, None]
    w_idx = np.arange(width)[None, :]
    d_f3[b_idx, argmax, w_idx] += d_pooled

    d_prev = d_f3
    layer_inputs = {"detail": cache["f0"], "local": cache["detail_out"], "global": cache["local_out"]}
    for name, d in reversed(DILATIONS.items()):
        kernel = getattr(params, f"{name}_w")
        d_h = d_prev * (cache[f"{name}_z"] > 0)
        grads[f"{name}_w"], grads[f"{name}_b"] = conv_weight_grad(d_h, layer_inputs[name], kernel, d)
        d_prev = d_prev + conv_input_grad(d_h, kernel, d)  # residual shortcut

    d_z0 = d_prev * (cache["z0"] > 0)
    flat_dz0 = d_z0.reshape(-1, width)
    features = cache["features"]
    grads["up_w"] = flat_dz0.T @ features.reshape(-1, features.shape[-1])
    grads["up_b"] = flat_dz0.sum(axis=0)
    return grads
