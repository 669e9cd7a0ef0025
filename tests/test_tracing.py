"""The perfbench tracer's names resolve (``perfbench/tracing.py``).

The tracer wraps ``repro`` functions by module and qualified name from
outside the package, so a rename or a move under ``src/`` breaks every
traced benchmark run without failing any solver test.  These checks
load the tracer by path and resolve its names without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module_name", tracing.CONSUMERS)
def test_consumers_import(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize(
    "module_name, qualname",
    [(module, qualname) for module, qualname, _ in tracing.TARGETS],
    ids=[span for _, _, span in tracing.TARGETS],
)
def test_targets_resolve(module_name, qualname):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        # ``install`` wraps the method found in the owner's own
        # ``__dict__``: an inherited method would not be there.
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__.get(attr)), qualname
    else:
        assert callable(getattr(module, attr, None)), qualname


@pytest.mark.parametrize("module_name, attr", tracing.WORKER_MAINS)
def test_worker_mains_exist(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
