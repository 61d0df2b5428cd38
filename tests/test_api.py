"""Public API guard: the package exports exactly what its modules export."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import scbands

MODULES = (
    "bands", "bootstrap", "cli", "errors", "experiments", "fdata", "kinematic",
    "lkc", "models", "rng", "sampleio", "scalespace",
)


def test_every_module_is_guarded():
    assert {m.name for m in pkgutil.iter_modules(scbands.__path__)} == set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist_and_are_re_exported(name):
    module = importlib.import_module(f"scbands.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"scbands.{name}.__all__ lists missing {attr!r}"
        if (name, attr) == ("cli", "main"):
            continue
        assert attr in scbands.__all__, f"scbands does not re-export {name}.{attr}"
        assert getattr(scbands, attr) is getattr(module, attr)


def test_package_exports_are_unique_and_come_from_modules():
    names = scbands.__all__
    assert len(names) == len(set(names))
    exported = {
        attr for name in MODULES for attr in importlib.import_module(f"scbands.{name}").__all__
    }
    assert set(names) == exported - {"main"}


def test_import_loads_neither_scipy_stats_nor_optimize():
    # Every fresh process pays for what the import loads (scipy.optimize
    # alone adds about 0.27 s), so the package keeps to scipy.special.
    src = os.path.dirname(os.path.dirname(scbands.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, scbands, scbands.cli; "
        "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"
