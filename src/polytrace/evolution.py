"""Contour-evolution micro-network.

Per-vertex features (sampled grid channels plus relative coordinates) run
through a circular 1-D convolution encoder that aggregates detail-to-global
context: an up-dimensioning 1x1 layer, then kernel sizes 3, 9 and 21 with
residual shortcuts, then fusion of a global max-pooled vector that is
broadcast-concatenated back onto every vertex. Two pointwise heads emit the
per-vertex coordinate offsets and the two-class validity logits.

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

Every array is a (B, N, D) batch: :func:`vertex_features` samples the grid
and computes relative coordinates for B contours of N vertices at once, and
one :func:`forward` call runs all of them, so an image's contours are evolved
as one tensor in training and in inference alike. Forward passes cache the
activations :func:`backward` needs, which produces exact reverse-mode
gradients for all parameters and for the input vertex features. The im2col
columns of the convolutions are not cached: backward rebuilds them from each
layer's cached input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .detection import STRIDE


@dataclass
class EvolutionParams:
    """Weights of the micro-network; see :meth:`initialize` for shapes."""

    up_w: np.ndarray        # (W, C+2)
    up_b: np.ndarray        # (W,)
    detail_w: np.ndarray    # (3, W_in, W_out)
    detail_b: np.ndarray
    local_w: np.ndarray     # (9, W_in, W_out)
    local_b: np.ndarray
    global_w: np.ndarray    # (21, W_in, W_out)
    global_b: np.ndarray
    fuse_w: np.ndarray      # (W, 2W), pooled vector in the second half
    fuse_b: np.ndarray
    offset_w: np.ndarray    # (2, W)
    offset_b: np.ndarray
    cls_w: np.ndarray       # (2, W)
    cls_b: np.ndarray

    @classmethod
    def initialize(cls, feature_channels: int, width: int, rng=None) -> "EvolutionParams":
        """Fresh parameters: encoder weights uniform in +-sqrt(1/(k*D_in)),
        both heads zero so the first evolution step is the identity. Each
        kernel is drawn in (D_out, D_in, k) order and stored transposed, so
        a seed gives the same weights in either layout."""
        rng = np.random.default_rng() if rng is None else rng
        d_in = feature_channels + 2

        def uniform(shape, fan):
            a = np.sqrt(1.0 / fan)
            return rng.uniform(-a, a, size=shape)

        def kernel(k):
            return np.ascontiguousarray(uniform((width, width, k), k * width).transpose(2, 1, 0))

        return cls(
            up_w=uniform((width, d_in), d_in),
            up_b=np.zeros(width),
            detail_w=kernel(3),
            detail_b=np.zeros(width),
            local_w=kernel(9),
            local_b=np.zeros(width),
            global_w=kernel(21),
            global_b=np.zeros(width),
            fuse_w=uniform((width, 2 * width), 2 * width),
            fuse_b=np.zeros(width),
            offset_w=np.zeros((2, width)),
            offset_b=np.zeros(2),
            cls_w=np.zeros((2, width)),
            cls_b=np.zeros(2),
        )

    @property
    def feature_dim(self) -> int:
        return self.up_w.shape[1]

    def arrays(self):
        """Ordered (name, array) pairs; the canonical flattening."""
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    @classmethod
    def from_arrays(cls, named: dict) -> "EvolutionParams":
        return cls(**{f.name: np.asarray(named[f.name], dtype=float) for f in fields(cls)})


def sample_features(grid, points) -> np.ndarray:
    """Bilinear interpolation of every grid channel at stride-4 coordinates.

    ``grid`` is (rows, cols, C); points are (..., 2) full-resolution pixels,
    mapped to grid coordinates by dividing by the stride and clamped to the
    grid. The result is (..., C).
    """
    g = np.asarray(grid, dtype=float)
    pts = np.asarray(points, dtype=float)
    rows, cols = g.shape[:2]
    gx = np.clip(pts[..., 0] / STRIDE, 0.0, cols - 1.0)
    gy = np.clip(pts[..., 1] / STRIDE, 0.0, rows - 1.0)
    x0 = np.clip(np.floor(gx).astype(int), 0, max(cols - 2, 0))
    y0 = np.clip(np.floor(gy).astype(int), 0, max(rows - 2, 0))
    fx = (gx - x0)[..., None]
    fy = (gy - y0)[..., None]
    x1 = np.minimum(x0 + 1, cols - 1)
    y1 = np.minimum(y0 + 1, rows - 1)
    return (
        g[y0, x0] * (1 - fy) * (1 - fx)
        + g[y0, x1] * (1 - fy) * fx
        + g[y1, x0] * fy * (1 - fx)
        + g[y1, x1] * fy * fx
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


def vertex_features(grid, points) -> np.ndarray:
    """(B, N, C+2) network inputs for a (B, N, 2) batch of contours: the
    sampled grid channels, then the two relative coordinates."""
    return np.concatenate([sample_features(grid, points), relative_coords(points)], axis=-1)


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
    cols = _columns(np.asarray(x, dtype=float), window, mode)
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
    d_x = np.zeros((b, n, d_in))
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


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(probs, d_probs):
    """d(logits) given d(probs) through a softmax."""
    inner = (d_probs * probs).sum(axis=-1, keepdims=True)
    return probs * (d_probs - inner)


def forward(features, params: EvolutionParams):
    """Run the micro-network on (B, N, C+2) vertex features.

    Returns (offsets, logits, probs, cache); offsets are (B, N, 2) in pixels,
    probs the per-vertex two-class softmax (valid class last).
    """
    x = np.asarray(features, dtype=float)
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

    offsets = f4 @ params.offset_w.T + params.offset_b
    logits = f4 @ params.cls_w.T + params.cls_b
    probs = softmax(logits)
    cache["probs"] = probs
    return offsets, logits, probs, cache


def backward(cache, params: EvolutionParams, d_offsets=None, d_logits=None):
    """Reverse-mode gradients for every parameter and the input features.

    Returns (grads, d_features) where ``grads`` maps parameter field names to
    arrays of matching shapes.
    """
    f4 = cache.get("f4")
    if f4 is None:
        raise ValueError("backward requires the cache of a prior forward pass")
    b, n, width = f4.shape
    grads = {}
    d_f4 = 0.0
    for head, d_head in (("offset", d_offsets), ("cls", d_logits)):
        head_w = getattr(params, f"{head}_w")
        if d_head is None:
            grads[f"{head}_w"] = np.zeros_like(head_w)
            grads[f"{head}_b"] = np.zeros(head_w.shape[0])
            continue
        flat = np.asarray(d_head, dtype=float).reshape(-1, 2)
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
    grads["up_w"] = flat_dz0.T @ cache["features"].reshape(-1, params.feature_dim)
    grads["up_b"] = flat_dz0.sum(axis=0)
    d_features = d_z0 @ params.up_w
    return grads, d_features

