"""Bounding-box layout solver and screen constraints.

Computes the rendered size of every widget-tree node bottom-up (the blue
bounding boxes of paper Figure 2), and checks the hard screen constraint:
"We consider a widget tree invalid (has infinite cost) if its size exceeds
the output screen's size."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..widgets.tree import WidgetNode

#: Inner padding of a layout box (px) and gap between siblings (px).
BOX_PADDING = 6.0
BOX_GAP = 8.0
#: Height of a tab header row / adder button row (px).
HEADER_HEIGHT = 30.0
#: Extra width per tab header label character (matches widget library).
TITLE_HEIGHT = 14.0


@dataclass(frozen=True)
class Screen:
    """Output screen size in abstract pixels."""

    width: float
    height: float

    @staticmethod
    def wide() -> "Screen":
        """The paper's wider-screen setting (Figure 6a)."""
        return Screen(1100.0, 700.0)

    @staticmethod
    def narrow() -> "Screen":
        """The paper's narrow-screen setting (Figure 6b): 340 x 560 px.

        It binds only when an interface is wider than 340 px or taller
        than 560 px; then the search must pick a more compact one.  On
        the Listing-1 log at ``max_iterations=8`` the wide-screen winner
        is 277 px wide, so both screens serve the same interface.
        """
        return Screen(340.0, 560.0)


@dataclass(frozen=True)
class Box:
    width: float
    height: float

    def padded(self, dx: float, dy: float) -> "Box":
        return Box(self.width + dx, self.height + dy)


def measure(node: WidgetNode) -> Box:
    """Compute the bounding box of a widget-tree node (recursive)."""
    name = node.widget
    if name in ("vertical", "horizontal"):
        if not node.children:
            return Box(0.0, 0.0)
        child_boxes = [measure(c) for c in node.children]
        gaps = BOX_GAP * (len(child_boxes) - 1)
        if name == "vertical":
            width = max(b.width for b in child_boxes)
            height = sum(b.height for b in child_boxes) + gaps
        else:
            width = sum(b.width for b in child_boxes) + gaps
            height = max(b.height for b in child_boxes)
        box = Box(width, height).padded(2 * BOX_PADDING, 2 * BOX_PADDING)
        if node.title:
            box = Box(box.width, box.height + TITLE_HEIGHT)
        return box
    if name == "tabs":
        header = node.wtype.size(node.domain, node.size_class)
        if node.children:
            pages = [measure(c) for c in node.children]
            content_w = max(b.width for b in pages)
            content_h = max(b.height for b in pages)
        else:
            content_w = content_h = 0.0
        width = max(header[0], content_w)
        height = HEADER_HEIGHT + content_h
        return Box(width, height).padded(2 * BOX_PADDING, 2 * BOX_PADDING)
    if name == "adder":
        buttons = node.wtype.size(node.domain, node.size_class)
        if node.children:
            inner = [measure(c) for c in node.children]
            gaps = BOX_GAP * (len(inner) - 1)
            content_w = max(b.width for b in inner)
            content_h = sum(b.height for b in inner) + gaps
        else:
            content_w = content_h = 0.0
        width = max(buttons[0], content_w)
        height = buttons[1] + content_h + BOX_GAP
        return Box(width, height).padded(2 * BOX_PADDING, 2 * BOX_PADDING)
    # Plain interaction widget: the library size plus an optional caption.
    width, height = node.wtype.size(node.domain, node.size_class)
    if node.title:
        height += TITLE_HEIGHT
        width = max(width, 7.0 * len(node.title))
    return Box(width, height)


def fits(root: WidgetNode, screen: Screen) -> bool:
    """True when the rendered interface fits the screen."""
    box = measure(root)
    return box.width <= screen.width and box.height <= screen.height


def overflow(root: WidgetNode, screen: Screen) -> Tuple[float, float]:
    """How far (px) the interface exceeds the screen in each dimension."""
    box = measure(root)
    return (max(0.0, box.width - screen.width), max(0.0, box.height - screen.height))
