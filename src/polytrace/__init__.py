"""polytrace: learnable vectorized building-contour extraction.

The package is organized around the stages of the pipeline:

- :mod:`polytrace.geometry`    polygon primitives, anchored densification, rasters
- :mod:`polytrace.assignment`  Hungarian matching and nearest-point queries
- :mod:`polytrace.losses`      training objectives with analytic gradients
- :mod:`polytrace.detection`   center heatmaps and peak decoding
- :mod:`polytrace.evolution`   the contour-evolution micro-network
- :mod:`polytrace.reduction`   vertex thresholding, NMS and angle pruning
- :mod:`polytrace.evaluation`  mask/boundary IoU, AP and manual-level metrics
- :mod:`polytrace.synth`       synthetic scenes and the handcrafted feature grid
- :mod:`polytrace.pipeline`    detection heads, the contour forward, inference
- :mod:`polytrace.training`    optimizers and the end-to-end training loop
- :mod:`polytrace.config`      run configuration
"""

__version__ = "0.1.0"
