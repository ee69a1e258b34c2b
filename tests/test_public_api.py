"""Public-API smoke: modules import, and ``__all__`` matches reality.

Doubles as the CI ``api-smoke`` gate: every name a module advertises in
``__all__`` must actually resolve, and the primary entry points must be
re-exported at the package root.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

PUBLIC_MODULES = (
    "repro",
    "repro.core",
    "repro.engine",
    "repro.serve",
    "repro.workloads",
    "repro.search",
    "repro.cost",
    "repro.rules",
    "repro.difftree",
    "repro.obs",
)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_all_is_consistent(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{module_name} must declare __all__"
    assert len(exported) == len(set(exported)), f"duplicate names in {module_name}.__all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ advertises missing names: {missing}"


def test_root_reexports_engine_surface():
    import repro

    for name in ("Engine", "LogSession", "GenerationReport"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_legacy_entry_points_still_importable():
    from repro import (  # noqa: F401
        GenerationConfig,
        IncrementalGenerator,
        generate_interface,
    )
    from repro.core import prepare_search, run_search  # noqa: F401
    from repro.serve import DEFAULT_SESSION, InterfaceCache  # noqa: F401


def test_import_and_generate_do_not_load_numpy():
    # The package is pure stdlib: importing it and serving one log must
    # not pull numpy in (it costs start-up time and resident memory).
    # Nor the process-pool machinery: nothing in the package uses it.
    import repro

    code = (
        "import sys\n"
        "from repro import Engine\n"
        "from repro.workloads import listing1_sql\n"
        "Engine().generate(listing1_sql())\n"
        "for name in ('numpy', 'multiprocessing', 'concurrent.futures.process'):\n"
        "    assert name not in sys.modules, f'{name} was imported'\n"
    )
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
