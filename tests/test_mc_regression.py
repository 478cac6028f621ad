"""Particle fingerprints of two solved pairs, held to a recorded reference.

``data/mc_regression.json`` was written by :func:`record`: for each case,
the per-slice sum and sum of squares of the densities that
:func:`simulate_density` returns on the final pair of the solve.  They are
held to 1e-12 relative, and moving a single path changes the sum of squares
by far more, so a change to the draws, their order or the Euler-Maruyama
step fails here.  The d = 2 case runs in short batches, so several
generators, a short last batch and the batch-order sum are covered.
"""

import json
import os
import tempfile

import numpy as np
import pytest

from mfgcon import montecarlo
from mfgcon.continuation import solve_path
from mfgcon.fileio import build_problem, load_config
from mfgcon.montecarlo import SDEConfig, simulate_density
from mfgcon.system import LambdaData

from test_field_regression import _config_path

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "mc_regression.json")

# case: (paths, seed, paths per batch)
CASES = {"reference": (100_000, 7, 50_000), "flat2d": (7_000, 4, 2_000)}


def fingerprint(name: str, tmp_dir: str) -> dict:
    """Per-slice sums of the empirical densities of case ``name``."""
    paths, seed, batch = CASES[name]
    cfg = load_config(_config_path(name, tmp_dir))
    problem = build_problem(cfg)
    pair = solve_path(problem, cfg.solver)[-1].pair
    lam = LambdaData.from_problem(problem, 0.0)
    saved = montecarlo._BATCH_PATHS
    montecarlo._BATCH_PATHS = batch
    try:
        values = simulate_density(problem, lam, pair, SDEConfig(paths=paths, seed=seed)).values
    finally:
        montecarlo._BATCH_PATHS = saved
    return {
        "paths": paths,
        "seed": seed,
        "batch_paths": batch,
        "sum": np.sum(values, axis=1).tolist(),
        "sum_sq": np.sum(values * values, axis=1).tolist(),
    }


def record(path: str = DATA) -> None:
    """Rewrite the reference file from the code on the import path."""
    with tempfile.TemporaryDirectory() as tmp:
        data = {name: fingerprint(name, tmp) for name in CASES}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


@pytest.mark.parametrize("name", list(CASES))
def test_particle_densities_match_recorded_fingerprint(name, tmp_path):
    with open(DATA) as fh:
        expected = json.load(fh)[name]
    got = fingerprint(name, str(tmp_path))
    assert (got["paths"], got["seed"], got["batch_paths"]) == (
        expected["paths"], expected["seed"], expected["batch_paths"]
    )
    for key in ("sum", "sum_sq"):
        np.testing.assert_allclose(got[key], expected[key], rtol=1e-12, atol=0.0, err_msg=key)
