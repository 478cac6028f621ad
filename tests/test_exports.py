"""The public surface resolves: every name in each module's ``__all__`` exists,
and the package imports without an error or a warning.

A deletion that leaves a stale string in ``__all__`` breaks ``import *`` only
when someone runs it, so the exports are checked here.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mfgcon

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(info.name for info in pkgutil.iter_modules(mfgcon.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mfgcon.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_cleanly():
    # the package depends on numpy alone, so importing it loads no scipy
    stars = "; ".join(f"from mfgcon.{name} import *" for name in MODULES)
    lean = ("import sys; scipy = sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'); "
            "assert not scipy, scipy")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         f"import mfgcon; from mfgcon import *; {stars}; {lean}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
