"""The benchmark must still find every mfgcon name and config key it uses.

``perfbench/spans.py`` skips a hooked name that no longer exists, so a rename
in ``src/`` would silently read as a zero counter.  This test loads the
tracer without writing anything under ``perfbench/``, installs it on a fresh
import of mfgcon and checks that every hook it asked for was installed.  A
key that ``perfbench/workloads.py`` writes and ``src/`` no longer reads would
fail every benchmark operation, so the workload configs are loaded here too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mfgcon import continuation
from mfgcon.fileio import build_problem, load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Hooks of code that was deleted on purpose; their counters read zero.
RETIRED = {"assemble_L", "shooting_matrix"}


def _load(name: str):
    """``perfbench/<name>.py`` as a module, with no bytecode written there.

    The module sits in ``sys.modules`` while it runs, as its dataclasses need.
    """
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    was, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = was
        del sys.modules[spec.name]
    return module


def _is_mfgcon(owner) -> bool:
    name = getattr(owner, "__module__", None) or ""
    if isinstance(owner, type(sys)):
        name = owner.__name__
    return name == "mfgcon" or name.startswith("mfgcon.")


@pytest.fixture
def fresh_mfgcon():
    """mfgcon imported anew, with the modules other tests hold put back afterwards."""
    saved = {k: v for k, v in sys.modules.items() if k == "mfgcon" or k.startswith("mfgcon.")}
    for name in saved:
        del sys.modules[name]
    try:
        yield importlib.import_module
    finally:
        for name in [k for k in sys.modules if k == "mfgcon" or k.startswith("mfgcon.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_mfgcon_hook_is_installed(fresh_mfgcon):
    spans = _load("spans")
    mods = {name: fresh_mfgcon(f"mfgcon.{name}") for name in spans.LAYERS}
    tracer = spans.Tracer()
    requested = []
    patch = tracer.patch

    def recording_patch(owner, attr, *args, **kwargs):
        requested.append((owner, attr))
        return patch(owner, attr, *args, **kwargs)

    tracer.patch = recording_patch
    try:
        tracer.install(mods)
        installed = {(id(owner), attr) for owner, attr, _ in tracer._installed}
    finally:
        tracer.remove()

    hooked = [(owner, attr) for owner, attr in requested
              if owner is None or _is_mfgcon(owner)]
    assert len(hooked) > 10
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in hooked
        if attr not in RETIRED and (id(owner), attr) not in installed
    ]
    assert missing == []
    # the solve hook reads apply_L for the achieved linear residual
    assert callable(getattr(mods["linearized"], "apply_L", None))



def test_every_workload_config_loads(tmp_path):
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"ref1d", "stiff1d", "grid2d"}
    for name, workload in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(workloads.seeded_input(workload, 0).config_text)
        cfg = load_config(str(path))
        problem = build_problem(cfg)
        # run.setup_once evaluates the residual at 1 - dlambda_init
        assert 0.0 < cfg.solver.dlambda_init <= cfg.solver.dlambda_max
        assert problem.grid.points_per_dim == workload.n
        if name == "grid2d":  # its path stays nested, with 8x8 and 16x16 records
            assert continuation._coarse_holds_the_data(problem)
