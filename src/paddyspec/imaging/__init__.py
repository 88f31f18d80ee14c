"""Image loading/saving, intensity normalization, bilinear resize, and
perspective warping."""

from .image import (
    ARRAY_MAGIC,
    BAND_SETS,
    KNOWN_BANDS,
    ImageF,
    ImageFormatError,
    load_array,
    load_image,
    save_array,
    save_image,
)
from .png_io import read_png, write_png
from .transform import resize_bilinear, resize_mask, warp_perspective

__all__ = [
    "ARRAY_MAGIC",
    "BAND_SETS",
    "ImageF",
    "ImageFormatError",
    "KNOWN_BANDS",
    "load_array",
    "load_image",
    "read_png",
    "resize_bilinear",
    "resize_mask",
    "save_array",
    "save_image",
    "warp_perspective",
    "write_png",
]
