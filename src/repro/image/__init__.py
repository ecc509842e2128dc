"""Image representation, raster ops, drawing and adversarial augmentation.

Images are ``(H, W, 3)`` float32 arrays in ``[0, 1]`` (RGB).  Depth maps
are ``(H, W)`` float32 in metres.  Everything is vectorised NumPy; the
renderer and the adversarial transforms never loop over pixels.
"""

from .ops import (
    letterbox,
    resize_nearest,
    resize_bilinear,
    crop,
    rotate,
    gaussian_blur,
    adjust_brightness,
    adjust_contrast,
    add_noise,
    to_uint8,
    from_uint8,
    validate_image,
)
from .draw import (
    fill_rect,
    fill_circle,
    draw_line,
    vertical_gradient,
    checker_texture,
)
from .augment import (
    AdversarialKind,
    AugmentConfig,
    apply_adversarial,
)

__all__ = [
    "letterbox", "resize_nearest", "resize_bilinear", "crop", "rotate",
    "gaussian_blur", "adjust_brightness", "adjust_contrast", "add_noise",
    "to_uint8", "from_uint8", "validate_image",
    "fill_rect", "fill_circle", "draw_line",
    "vertical_gradient", "checker_texture",
    "AdversarialKind", "AugmentConfig", "apply_adversarial",
]
