"""Contour-evolution micro-network.

Per-vertex features (sampled grid channels plus relative coordinates) run
through a circular 1-D convolution encoder that aggregates detail-to-global
context: an up-dimensioning 1x1 layer, then kernel sizes 3, 9 and 21 with
residual shortcuts, then fusion of a global max-pooled vector that is
broadcast-concatenated back onto every vertex. Two pointwise heads emit the
per-vertex coordinate offsets (the step head) and the two-class validity
logits (the cls head). The weights are the ``up_*`` to ``cls_*`` fields of
:class:`pipeline.PipelineParams`, whose comments give their shapes;
:func:`forward` and :func:`backward` read them from that one object.

One :func:`conv` serves the circular encoder (``"wrap"`` padding over the
vertex axis) and the zero-padded 3x3 center head of :mod:`pipeline`: each
layer builds its im2col columns as one contiguous array (one ``np.take`` of
cached circular indices, or one copy of the zero-padded windows) and runs
one 2-D GEMM. Every kernel is stored in the layout that GEMM reads,
``(*window, D_in, D_out)``, so :func:`kernel_matrix` is a free view and
:func:`kernel_grad` returns the weight gradient in the kernel's own
C-contiguous layout. The input gradient, needed for the circular encoder
only, is one GEMM against the transposed view whose column gradients are
added back onto the vertices tap by tap.

Every array is a (B, N, D) batch: :func:`vertex_features` samples a stack
of feature grids, each contour the grid of its own scene, and computes
relative coordinates for B contours of N vertices at once, and one
:func:`forward` call runs all of them, so the contours of an image in
inference, and of every scene of a training step, are evolved as one
tensor. Forward passes cache the activations :func:`backward` needs, which
produces exact reverse-mode gradients for the parameters it reaches. The
im2col columns of the convolutions are not cached: backward rebuilds them
from each layer's cached input.

The network computes in the dtype of its parameters: :func:`forward` casts
the vertex features, and :func:`backward` the upstream gradients, to it, and
every activation, cache entry and gradient keeps it. The model stores these
arrays as float32, which halves the bytes each GEMM moves; the
finite-difference tests pass float64 parameters. :func:`conv` computes in
its kernel's dtype, so the float64 center head's convolution stays float64.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import softmax

from .detection import STRIDE


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
def _wrap_index(n: int, k: int) -> np.ndarray:
    """(n, k) vertex indices of the circular windows: row m holds
    m-(k-1)/2 .. m+(k-1)/2 modulo n, for any k, also k > n."""
    index = (np.arange(n)[:, None] + np.arange(k) - (k - 1) // 2) % n
    index.flags.writeable = False
    return index


def _columns(x, window, mode):
    """im2col of the ``len(window)`` axes before the channel axis:
    (..., *S, D) -> (..., *S, prod(window)*D), tap-major, as one contiguous
    array. ``"wrap"`` (one window axis) gathers the circular windows with one
    ``np.take``; ``"constant"`` zero-pads and copies the windows once."""
    if mode == "wrap":
        (k,) = window
        cols = np.take(x, _wrap_index(x.shape[-2], k), axis=-2)
    else:
        nd = len(window)
        pad = [(0, 0)] * (x.ndim - nd - 1) + [((k - 1) // 2,) * 2 for k in window] + [(0, 0)]
        axes = tuple(range(x.ndim - nd - 1, x.ndim - 1))
        view = np.lib.stride_tricks.sliding_window_view(np.pad(x, pad), window, axis=axes)
        cols = np.ascontiguousarray(np.moveaxis(view, x.ndim - 1, -1))
    return cols.reshape(*x.shape[:-1], -1)


def kernel_matrix(kernel) -> np.ndarray:
    """(*window, D_in, D_out) kernel -> (prod(window)*D_in, D_out) GEMM
    operand, tap-major like the im2col columns; a view of a C-contiguous
    kernel."""
    return kernel.reshape(-1, kernel.shape[-1])


def conv(x, kernel, bias, mode) -> np.ndarray:
    """Same-size cross-correlation of a channels-last array.

    ``kernel`` is (*window, D_in, D_out) with odd window sizes; the window
    slides over the axes just before the channel axis of ``x``, which are
    padded by ``mode``: ``"constant"`` for zeros, ``"wrap"`` for the circular
    vertex axis. Output position n sees inputs n-(k-1)/2 .. n+(k-1)/2 along
    each window axis. The columns of all positions form one 2-D GEMM.
    """
    window = kernel.shape[:-2]
    if any(k % 2 == 0 for k in window):
        raise ValueError("convolution requires odd kernel sizes")
    cols = _columns(np.asarray(x, dtype=kernel.dtype), window, mode)
    out = cols.reshape(-1, cols.shape[-1]) @ kernel_matrix(kernel) + bias
    return out.reshape(*cols.shape[:-1], -1)


def conv_input_grad(d_out, kernel) -> np.ndarray:
    """Gradient of the circular (``"wrap"``) :func:`conv` of a (B, N, D_in)
    input for that input. One GEMM against the transposed kernel view gives
    the column gradients; each tap's are added onto the vertices that tap
    read, a circular shift done as two slice additions, so no temporary
    larger than the column gradients is built."""
    k, d_in, d_out_ch = kernel.shape
    b, n, _ = d_out.shape
    d_cols = (d_out.reshape(-1, d_out_ch) @ kernel_matrix(kernel).T).reshape(b, n, k, d_in)
    d_x = np.zeros((b, n, d_in), dtype=d_cols.dtype)
    for t in range(k):
        # tap t of output vertex j read vertex j + s modulo n, for any k, also k > n
        s = (t - (k - 1) // 2) % n
        d_x[:, s:] += d_cols[:, : n - s, t]
        d_x[:, :s] += d_cols[:, n - s :, t]
    return d_x


def conv_weight_grad(d_out, x, kernel, mode):
    """Gradients (d_w, d_b) of :func:`conv` for its kernel and bias, from
    columns rebuilt from the layer input ``x``."""
    return kernel_grad(_columns(x, kernel.shape[:-2], mode), d_out, kernel)


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


def softmax_backward(probs, d_probs):
    """d(logits) given d(probs) through a softmax."""
    inner = (d_probs * probs).sum(axis=-1, keepdims=True)
    return probs * (d_probs - inner)


def forward(features, params):
    """Run the micro-network of :class:`pipeline.PipelineParams` ``params``
    on (B, N, C+2) vertex features, in the dtype of its arrays.

    Returns (offsets, probs, cache); offsets are (B, N, 2) in pixels,
    probs the per-vertex two-class softmax (valid class last).
    """
    x = np.asarray(features, dtype=params.up_w.dtype)
    cache = {"features": x}

    z0 = x @ params.up_w.T + params.up_b
    f0 = _relu(z0)
    cache["z0"], cache["f0"] = z0, f0

    f_prev = f0
    for name in ("detail", "local", "global"):
        kernel = getattr(params, f"{name}_w")
        bias = getattr(params, f"{name}_b")
        z = conv(f_prev, kernel, bias, "wrap")
        f_prev = f_prev + _relu(z)
        cache[f"{name}_z"], cache[f"{name}_out"] = z, f_prev

    f3 = f_prev
    pooled = f3.max(axis=1)
    argmax = f3.argmax(axis=1)
    cat = np.concatenate([f3, np.broadcast_to(pooled[:, None, :], f3.shape)], axis=2)
    z4 = cat @ params.fuse_w.T + params.fuse_b
    f4 = _relu(z4)
    cache.update(pooled_argmax=argmax, cat=cat, z4=z4, f4=f4)

    offsets = f4 @ params.step_w.T + params.step_b
    probs = softmax(f4 @ params.cls_w.T + params.cls_b, axis=-1)
    return offsets, probs, cache


def backward(cache, params, d_offsets=None, d_logits=None):
    """Reverse-mode gradients for the micro-network's parameters.

    Returns a dict mapping the names of the parameters the given upstream
    gradients reach to arrays of their shapes and dtypes: a head without an
    upstream gradient gets no entry.
    """
    f4 = cache.get("f4")
    if f4 is None:
        raise ValueError("backward requires the cache of a prior forward pass")
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
    d_pooled = d_cat[:, :, width:].sum(axis=1)
    argmax = cache["pooled_argmax"]
    b_idx = np.arange(b)[:, None]
    w_idx = np.arange(width)[None, :]
    d_f3[b_idx, argmax, w_idx] += d_pooled

    d_prev = d_f3
    layer_inputs = {"detail": cache["f0"], "local": cache["detail_out"], "global": cache["local_out"]}
    for name in ("global", "local", "detail"):
        kernel = getattr(params, f"{name}_w")
        d_h = d_prev * (cache[f"{name}_z"] > 0)
        grads[f"{name}_w"], grads[f"{name}_b"] = conv_weight_grad(d_h, layer_inputs[name], kernel, "wrap")
        d_prev = d_prev + conv_input_grad(d_h, kernel)  # residual shortcut

    d_z0 = d_prev * (cache["z0"] > 0)
    flat_dz0 = d_z0.reshape(-1, width)
    features = cache["features"]
    grads["up_w"] = flat_dz0.T @ features.reshape(-1, features.shape[-1])
    grads["up_b"] = flat_dz0.sum(axis=0)
    return grads
