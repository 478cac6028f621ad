"""Final-state fingerprints of two solves, held to a recorded reference.

``data/field_regression.json`` was written by :func:`record` with the
tangent-first-step, secant-after continuation, its step control from the
first Newton contraction and its inexact Newton corrector, and with the
reference path nested on 32 nodes: its coarse path and the lam = 0
correction on the config grid.  Its final fields match those of the same
path marched on the config grid alone to within 9.3e-15 in every
``FIELD_KEYS`` entry; that march's fields matched those of the earlier step
rule, which grew the step 1.5x after a hundredfold contraction and ended on
0.275 -> 0.1375 -> 0, to within 1.4e-14; those matched the secant-only path
to within 1.4e-14, and the earlier plain corrector, which took ten equal
steps, to within 1.5e-14.  A change that alters the path
(step sequence, Newton counts) or the final fields by more than roundoff
fails here; one that changes the path on purpose re-records the file and
shows the fields did not move.
"""

import json
import os
import tempfile

import numpy as np
import pytest

from mfgcon.continuation import solve_path
from mfgcon.fileio import build_problem, load_config

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "field_regression.json")
REFERENCE_CFG = os.path.join(HERE, os.pardir, "configs", "reference.cfg")

# the 8x8 two-dimensional config of test_cli.test_two_dimensional_config_solve
FLAT_2D = """
[problem]
d = 2
n = 8
n_t = 6
t = 0.02
gamma = 1.5
alpha = 0.5
b_x = 0.1*sin(1)
b_y = 0.05*sin(0,1)
v1 = 0.05*cos(1,1)
v2 = arctan
psi = 0.05*cos(1)
m0 = 1 + 0.2*cos(1) + 0.1*cos(0,1)

[solver]
dlambda_init = 0.25
dlambda_max = 0.25
"""

TOL = 1e-9
FIELD_KEYS = ("mass", "u_rms", "m_rms", "m_min", "u_mode1", "m_mode1")


def _config_path(name: str, tmp_dir: str) -> str:
    if name == "reference":
        return REFERENCE_CFG
    path = os.path.join(tmp_dir, "flat2d.cfg")
    with open(path, "w") as fh:
        fh.write(FLAT_2D)
    return path


def fingerprint(config_path: str) -> dict:
    """Solve ``config_path`` and summarize the path and its final state per slice."""
    cfg = load_config(config_path)
    problem = build_problem(cfg)
    states = solve_path(problem, cfg.solver)
    final = states[-1].pair
    u, m = final.u.values, final.m.values
    x = problem.grid.coordinates()[0].ravel()
    wave = np.exp(-2j * np.pi * x) / problem.grid.num_nodes  # Fourier mode k = e_1
    u_mode, m_mode = u @ wave, m @ wave
    return {
        "lambdas": [s.lam for s in states],
        "newton_iters": [s.newton_iters for s in states],
        "mass": (np.sum(m, axis=1) * problem.grid.cell_volume).tolist(),
        "u_rms": np.sqrt(np.mean(u * u, axis=1)).tolist(),
        "m_rms": np.sqrt(np.mean(m * m, axis=1)).tolist(),
        "m_min": np.min(m, axis=1).tolist(),
        "u_mode1": np.stack([u_mode.real, u_mode.imag], axis=1).tolist(),
        "m_mode1": np.stack([m_mode.real, m_mode.imag], axis=1).tolist(),
    }


def record(path: str = DATA) -> None:
    """Rewrite the reference file from the code on the import path."""
    with tempfile.TemporaryDirectory() as tmp:
        data = {name: fingerprint(_config_path(name, tmp)) for name in ("reference", "flat2d")}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


@pytest.mark.parametrize("name", ["reference", "flat2d"])
def test_final_state_matches_recorded_fingerprint(name, tmp_path):
    with open(DATA) as fh:
        expected = json.load(fh)[name]
    got = fingerprint(_config_path(name, str(tmp_path)))
    assert got["newton_iters"] == expected["newton_iters"]
    assert got["lambdas"] == pytest.approx(expected["lambdas"], abs=1e-15)
    for key in FIELD_KEYS:
        np.testing.assert_allclose(got[key], expected[key], rtol=0.0, atol=TOL, err_msg=key)
