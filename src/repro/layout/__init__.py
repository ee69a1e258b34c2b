"""Layout solving: bounding boxes and screen constraints."""

from .boxes import BOX_GAP, BOX_PADDING, Box, Screen, fits, measure, overflow

__all__ = [
    "Box",
    "Screen",
    "measure",
    "fits",
    "overflow",
    "BOX_GAP",
    "BOX_PADDING",
]
