"""Pluggable registries for search strategies and evaluation workloads.

The library used to hard-wire its extension points: ``core/api.py`` kept
a private ``_RUNNERS`` dict of search strategies (each runner re-checking
"am I allowed warm states?" imperatively) and every benchmark kept its
own ``WORKLOADS`` dict of log generators.  This module replaces both
with declarative registries:

* :func:`register_strategy` — a search strategy registers its task
  factory once, *declaring* its capabilities (``supports_warm_start``,
  ``needs_time_budget``).  Dispatch layers (:func:`repro.core.run_search`,
  :class:`repro.engine.Engine`, :class:`repro.serve.IncrementalGenerator`)
  enforce those capabilities generically instead of each strategy
  hand-rolling ``_require_cold`` checks.
* :func:`register_workload` — a query-log generator registers itself
  with descriptive tags (``"growing"`` for session generators usable by
  the serving benches, ``"synthetic"`` for the parameterized pattern
  logs, …) so benchmarks and the :class:`~repro.engine.Engine` resolve
  workloads by name uniformly across ``workloads/{sdss,tpch,synthetic}``.

This module is import-light on purpose (standard library only): it is
imported by ``repro.core``, ``repro.workloads``, and ``repro.engine``
without creating cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

__all__ = [
    "StrategySpec",
    "WorkloadSpec",
    "register_strategy",
    "strategy_spec",
    "strategy_names",
    "register_workload",
    "workload_spec",
    "get_workload",
    "workload_names",
]


class RegistryError(ValueError):
    """Raised on duplicate registration or unknown lookup."""


@dataclass(frozen=True)
class StrategySpec:
    """One registered search strategy and its declared capabilities.

    Attributes:
        name: registry key (the ``GenerationConfig.strategy`` value).
        task_factory: ``factory(model, initial, engine, config,
            warm_states)`` returning an *opened*
            :class:`~repro.search.common.SearchTask`.  A monolithic run
            is one unbounded step of the task, and the multi-session
            scheduler slices the same task.
        supports_warm_start: whether the strategy can consume seed states
            (a transposition table / incumbent).  Dispatchers reject
            ``warm_states`` for strategies without this capability, and
            the serving layer only warm-starts strategies that have it.
        needs_time_budget: whether the strategy's stop condition depends
            on ``time_budget_s`` (exhaustive search, for example,
            terminates on its own).  Dispatchers require a positive
            budget — or, for strategies that also declare
            ``supports_iteration_cap``, a positive iteration cap —
            when this is set.
        supports_iteration_cap: whether the strategy consumes
            ``max_iterations`` as an alternative stop condition (MCTS
            does; the walk/beam baselines ignore it).
        description: one-liner for ``strategy_names`` listings.
    """

    name: str
    task_factory: Callable[..., object]
    supports_warm_start: bool = False
    needs_time_budget: bool = True
    supports_iteration_cap: bool = False
    description: str = ""


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered query-log generator.

    Attributes:
        name: registry key (e.g. ``"sdss"``, ``"synthetic.value_drift"``).
        factory: the generator callable.  Growing-log generators take
            ``(num_queries, seed=...)`` and return SQL strings; synthetic
            generators return parsed ASTs — the ``tags`` say which.
        tags: descriptive capability tags (``"growing"``, ``"sql"``,
            ``"synthetic"``, ``"ast"``).
        description: one-liner for listings.
    """

    name: str
    factory: Callable[..., object]
    tags: Tuple[str, ...] = ()
    description: str = ""

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


_STRATEGIES: Dict[str, StrategySpec] = {}
_WORKLOADS: Dict[str, WorkloadSpec] = {}


def _register(table: Dict, spec, kind: str) -> None:
    if spec.name in table:
        raise RegistryError(
            f"{kind} {spec.name!r} is already registered; "
            f"unregister it first or pick a different name"
        )
    table[spec.name] = spec


def _lookup(table: Dict, name: str, kind: str):
    spec = table.get(name)
    if spec is None:
        known = ", ".join(sorted(table)) or "<none>"
        raise RegistryError(f"unknown {kind} {name!r} (registered: {known})")
    return spec


# -- strategies ----------------------------------------------------------------


def register_strategy(
    name: str,
    *,
    supports_warm_start: bool = False,
    needs_time_budget: bool = True,
    supports_iteration_cap: bool = False,
    description: str = "",
) -> Callable:
    """Decorator registering a search-strategy task factory under ``name``.

    Usage::

        @register_strategy("mcts", supports_warm_start=True)
        def _open_mcts(model, initial, engine, config, warm_states):
            return MCTS(model, ...).open(initial, warm_states=warm_states)

    The factory returns an opened :class:`~repro.search.common.SearchTask`:
    :func:`repro.core.run_search` runs it to completion, and the
    multi-session scheduler slices it.

    Raises:
        RegistryError: if ``name`` is already registered.
    """

    def decorate(factory: Callable) -> Callable:
        _register(
            _STRATEGIES,
            StrategySpec(
                name=name,
                task_factory=factory,
                supports_warm_start=supports_warm_start,
                needs_time_budget=needs_time_budget,
                supports_iteration_cap=supports_iteration_cap,
                description=description or (factory.__doc__ or "").strip(),
            ),
            "strategy",
        )
        return factory

    return decorate


def strategy_spec(name: str) -> StrategySpec:
    """The registered spec of ``name``; raises listing known strategies."""
    return _lookup(_STRATEGIES, name, "strategy")


def strategy_names() -> Tuple[str, ...]:
    """All registered strategy names, sorted."""
    return tuple(sorted(_STRATEGIES))


# -- workloads -----------------------------------------------------------------


def register_workload(
    name: str,
    *,
    tags: Iterable[str] = (),
    description: str = "",
) -> Callable:
    """Decorator registering a query-log generator under ``name``.

    Usage::

        @register_workload("sdss", tags=("growing", "sql"))
        def sdss_session_sql(num_queries, seed=0): ...

    Raises:
        RegistryError: if ``name`` is already registered.
    """

    def decorate(factory: Callable) -> Callable:
        _register(
            _WORKLOADS,
            WorkloadSpec(
                name=name,
                factory=factory,
                tags=tuple(tags),
                description=description or (factory.__doc__ or "").strip(),
            ),
            "workload",
        )
        return factory

    return decorate


def workload_spec(name: str) -> WorkloadSpec:
    """The registered spec of ``name``; raises listing known workloads."""
    return _lookup(_WORKLOADS, name, "workload")


def get_workload(name: str) -> Callable[..., object]:
    """The generator callable registered under ``name``."""
    return workload_spec(name).factory


def workload_names(tag: Optional[str] = None) -> Tuple[str, ...]:
    """Registered workload names (optionally only those carrying ``tag``)."""
    return tuple(
        sorted(
            name
            for name, spec in _WORKLOADS.items()
            if tag is None or spec.has_tag(tag)
        )
    )
