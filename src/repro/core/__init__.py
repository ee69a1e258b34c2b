"""Top-level API."""

from .api import (
    STRATEGIES,
    GeneratedInterface,
    GenerationConfig,
    as_mcts_config,
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
    "as_mcts_config",
    "open_search_task",
    "prepare_search",
    "run_search",
]
