"""Every span target of ``perfbench/tracing.py`` names a live attribute.

``Recorder.install`` looks each target up with ``vars(owner)[name]``, so a
renamed or deleted function raises KeyError on every traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# Modules that left the package; ``install`` skips a module that is not imported.
GONE = {"sigcurve.groebner"}


def load_targets():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module, path",
    [(module, path) for _, module, path in load_targets() if module not in GONE],
    ids=lambda v: v,
)
def test_target_resolves_as_install_resolves_it(module, path):
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert name in vars(owner)
