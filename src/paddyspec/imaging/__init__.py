"""Image loading/saving, intensity normalization, bilinear resize, and
perspective warping."""

from .image import (
    BAND_SETS,
    KNOWN_BANDS,
    ImageF,
    ImageFormatError,
    load_image,
    save_image,
)
from .png_io import read_png, write_png
from .transform import resize_bilinear, resize_mask, warp_perspective

__all__ = [
    "BAND_SETS",
    "ImageF",
    "ImageFormatError",
    "KNOWN_BANDS",
    "load_image",
    "read_png",
    "resize_bilinear",
    "resize_mask",
    "save_image",
    "warp_perspective",
    "write_png",
]
