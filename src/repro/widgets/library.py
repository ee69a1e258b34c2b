"""The widget library: interaction and layout widget types.

Interaction widgets (paper footnote 2): label, textbox, dropdown, slider,
range slider, checkboxes, radio buttons, buttons, toggle — plus *tabs*
when used to switch between alternative sub-interfaces.  Layout widgets
(footnote 1): horizontal, vertical, tabs, adder.

Each interaction widget type defines:

* ``can_express(domain)`` — hard applicability (a slider cannot express
  arbitrary subtrees);
* ``appropriateness(domain)`` — the ``M(w)`` cost term, borrowed in spirit
  from Zhang, Sellam & Wu (2017): lower is better, e.g. radio buttons are
  great for 2–5 options and increasingly bad beyond;
* ``base_size(domain)`` — (width, height) in abstract pixels for the
  medium size class;
* ``interaction_cost(domain)`` — effort of one user operation (clicks,
  drags, typing), used inside the sequence cost ``U``.

Per the paper, sizes are discretized: every widget comes in ``S``/``M``/``L``
templates.  Smaller templates save screen space but cost more effort to
operate (harder targets, per Fitts-style reasoning), which the cost model
reflects via ``SIZE_CLASS_EFFORT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..memo import memo_table
from .domain import BOOLEAN, COUNT, NUMERIC, RANGE, STRING, SUBTREE, ChoiceDomain

# Size classes (paper: "we predefine small, medium and large ... templates").
SIZE_CLASSES = ("S", "M", "L")
SIZE_CLASS_SCALE: Dict[str, float] = {"S": 0.8, "M": 1.0, "L": 1.25}
SIZE_CLASS_EFFORT: Dict[str, float] = {"S": 1.25, "M": 1.0, "L": 0.9}

_CHAR_W = 7  # abstract px per character

#: Appropriateness penalty per option-label character for widgets that
#: enumerate their options (buttons, radio, dropdown, tabs).  Whole-SQL
#: labels make options hard to read and compare, so widgets over coarse
#: subtree domains (e.g. one button per query) pay for it — this is what
#: pushes the search toward factored, semantic widgets on realistic logs.
LABEL_CHAR_PENALTY = 0.05


def _label_penalty(domain: ChoiceDomain) -> float:
    return LABEL_CHAR_PENALTY * domain.total_label_chars


@dataclass(frozen=True)
class WidgetType:
    """Static description of one widget type.

    Attributes:
        name: unique identifier (e.g. ``"dropdown"``).
        is_layout: layout widgets organize children; interaction widgets
            control one choice node.
        can_express: predicate over :class:`ChoiceDomain`.
        appropriateness: the ``M(w)`` cost given a domain.
        base_size: (width, height) at size class ``M``.
        interaction_cost: effort of one operation on the widget.
    """

    name: str
    is_layout: bool
    can_express: Callable[[ChoiceDomain], bool]
    appropriateness: Callable[[ChoiceDomain], float]
    base_size: Callable[[ChoiceDomain], Tuple[float, float]]
    interaction_cost: Callable[[ChoiceDomain], float]

    def size(self, domain: Optional[ChoiceDomain], size_class: str = "M") -> Tuple[float, float]:
        scale = SIZE_CLASS_SCALE[size_class]
        width, height = self.base_size(domain)
        return (width * scale, height * scale)

    def effort(self, domain: Optional[ChoiceDomain], size_class: str = "M") -> float:
        return self.interaction_cost(domain) * SIZE_CLASS_EFFORT[size_class]


def _simple_options(domain: ChoiceDomain) -> bool:
    """Flat widgets can only enumerate concrete (choice-free) options."""
    return not domain.complex_options


def _is_enumerable(domain: ChoiceDomain) -> bool:
    return domain.kind in (NUMERIC, STRING, RANGE, SUBTREE) and _simple_options(domain)


def _numeric_irregularity(domain: ChoiceDomain) -> float:
    """0 for evenly spaced numeric options, growing with irregularity.

    Sliders assume an ordered, roughly uniform scale; ``10, 100, 1000`` is
    usable (log-ish) but worse than ``0, 10, 20``.
    """
    values = sorted(domain.numeric_values())
    if len(values) < 3:
        return 0.0
    gaps = [b - a for a, b in zip(values, values[1:])]
    mean = sum(gaps) / len(gaps)
    if mean <= 0:
        return 0.0
    variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    return min(2.0, math.sqrt(variance) / mean)


# -- interaction widget definitions ---------------------------------------------


def _dropdown() -> WidgetType:
    return WidgetType(
        name="dropdown",
        is_layout=False,
        can_express=lambda d: _is_enumerable(d) and d.size >= 2,
        appropriateness=lambda d: 2.0 + 0.02 * d.size + (1.0 if d.size == 2 else 0.0)
        + _label_penalty(d),
        base_size=lambda d: (
            min(240.0, max(90.0, 24 + _CHAR_W * d.max_label_len)),
            32.0,
        ),
        interaction_cost=lambda d: 2.0 + 0.01 * d.size,
    )


def _radio() -> WidgetType:
    return WidgetType(
        name="radio",
        is_layout=False,
        can_express=lambda d: _is_enumerable(d) and 2 <= d.size <= 12,
        appropriateness=lambda d: 1.0 + 0.5 * max(0, d.size - 5) + _label_penalty(d),
        base_size=lambda d: (
            min(260.0, 24 + _CHAR_W * d.max_label_len),
            26.0 * d.size,
        ),
        interaction_cost=lambda d: 1.0,
    )


def _buttons() -> WidgetType:
    return WidgetType(
        name="buttons",
        is_layout=False,
        can_express=lambda d: _is_enumerable(d) and 2 <= d.size <= 10,
        appropriateness=lambda d: 0.8 + 0.7 * max(0, d.size - 4) + _label_penalty(d),
        base_size=lambda d: (
            sum(20 + _CHAR_W * len(label) for label in d.labels) + 6.0 * (d.size - 1),
            34.0,
        ),
        interaction_cost=lambda d: 1.0,
    )


def _slider() -> WidgetType:
    return WidgetType(
        name="slider",
        is_layout=False,
        can_express=lambda d: d.kind == NUMERIC
        and _simple_options(d)
        and not d.has_empty
        and d.size >= 2,
        appropriateness=lambda d: 1.0 + 1.5 * _numeric_irregularity(d),
        base_size=lambda d: (170.0, 36.0),
        interaction_cost=lambda d: 1.5,
    )


def _range_slider() -> WidgetType:
    return WidgetType(
        name="range_slider",
        is_layout=False,
        can_express=lambda d: d.kind == RANGE and _simple_options(d) and not d.has_empty,
        appropriateness=lambda d: 1.2,
        base_size=lambda d: (190.0, 40.0),
        interaction_cost=lambda d: 2.5,
    )


def _textbox() -> WidgetType:
    return WidgetType(
        name="textbox",
        is_layout=False,
        can_express=lambda d: d.kind in (NUMERIC, STRING)
        and _simple_options(d)
        and not d.has_empty,
        appropriateness=lambda d: max(1.5, 4.5 - 0.05 * d.size),
        base_size=lambda d: (140.0, 32.0),
        interaction_cost=lambda d: 3.0,
    )


def _toggle() -> WidgetType:
    return WidgetType(
        name="toggle",
        is_layout=False,
        can_express=lambda d: d.kind == BOOLEAN
        or (_is_enumerable(d) and d.size == 2),
        appropriateness=lambda d: 0.5
        + (_label_penalty(d) if d.kind != BOOLEAN else 0.0),
        base_size=lambda d: (80.0, 28.0),
        interaction_cost=lambda d: 1.0,
    )


def _checkbox() -> WidgetType:
    return WidgetType(
        name="checkbox",
        is_layout=False,
        can_express=lambda d: d.kind == BOOLEAN,
        appropriateness=lambda d: 0.6,
        base_size=lambda d: (90.0, 24.0),
        interaction_cost=lambda d: 1.0,
    )


def _label() -> WidgetType:
    return WidgetType(
        name="label",
        is_layout=False,
        can_express=lambda d: False,  # never controls a choice; decoration only
        appropriateness=lambda d: 0.1,
        base_size=lambda d: (
            _CHAR_W * (d.max_label_len if d else 8),
            20.0,
        ),
        interaction_cost=lambda d: 0.0,
    )


def _tabs_choice() -> WidgetType:
    """Tabs used as an *interaction* widget over complex ANY alternatives."""
    return WidgetType(
        name="tabs",
        is_layout=False,
        can_express=lambda d: d.kind == SUBTREE and 2 <= d.size <= 8,
        appropriateness=lambda d: 1.5 + 0.5 * max(0, d.size - 4) + _label_penalty(d),
        base_size=lambda d: (
            sum(18 + _CHAR_W * len(label) for label in d.labels),
            30.0,
        ),
        interaction_cost=lambda d: 1.0,
    )


def _adder() -> WidgetType:
    return WidgetType(
        name="adder",
        is_layout=False,
        can_express=lambda d: d.kind == COUNT,
        appropriateness=lambda d: 1.0,
        base_size=lambda d: (70.0, 30.0),  # the +/- button row; content extra
        interaction_cost=lambda d: 1.5,
    )


# -- layout widget definitions ---------------------------------------------------


def _layout(name: str) -> WidgetType:
    return WidgetType(
        name=name,
        is_layout=True,
        can_express=lambda d: False,
        appropriateness=lambda d: 0.2,  # layout-complexity term (Comber/Maltby)
        base_size=lambda d: (0.0, 0.0),  # computed from children by layout solver
        interaction_cost=lambda d: 0.0,
    )


VERTICAL = _layout("vertical")
HORIZONTAL = _layout("horizontal")

#: All interaction widget types by name.
INTERACTION_WIDGETS: Dict[str, WidgetType] = {
    w.name: w
    for w in (
        _dropdown(),
        _radio(),
        _buttons(),
        _slider(),
        _range_slider(),
        _textbox(),
        _toggle(),
        _checkbox(),
        _label(),
        _tabs_choice(),
        _adder(),
    )
}

#: Layout widget types by name.
LAYOUT_WIDGETS: Dict[str, WidgetType] = {w.name: w for w in (VERTICAL, HORIZONTAL)}

ALL_WIDGETS: Dict[str, WidgetType] = {**INTERACTION_WIDGETS, **LAYOUT_WIDGETS}


def widget_type(name: str) -> WidgetType:
    try:
        return ALL_WIDGETS[name]
    except KeyError:
        raise KeyError(
            f"unknown widget {name!r} (have: {', '.join(sorted(ALL_WIDGETS))})"
        ) from None


#: Domain -> its candidate widgets (domains are immutable and hashable).
_CANDIDATES_MEMO = memo_table(1024, name="widgets.candidates")


def candidates_for(domain: ChoiceDomain) -> Tuple[WidgetType, ...]:
    """Interaction widgets that can express ``domain``, best-``M`` first
    (memoized per domain)."""
    cached = _CANDIDATES_MEMO.get(domain)
    if cached is not None:
        return cached
    options = [
        w
        for w in INTERACTION_WIDGETS.values()
        if w.name != "label" and w.can_express(domain)
    ]
    options.sort(key=lambda w: (w.appropriateness(domain), w.name))
    _CANDIDATES_MEMO[domain] = result = tuple(options)
    return result
