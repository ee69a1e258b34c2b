"""Top-level API."""

from .api import (
    STRATEGIES,
    GeneratedInterface,
    GenerationConfig,
    generate_interface,
    open_search_task,
    prepare_search,
    run_search,
)

__all__ = [
    "STRATEGIES",
    "generate_interface",
    "GenerationConfig",
    "GeneratedInterface",
    "open_search_task",
    "prepare_search",
    "run_search",
]
