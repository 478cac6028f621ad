import os

import numpy as np
import pytest

from mfgcon.cli import main
from mfgcon.continuation import HorizonError, solve_path
from mfgcon.fileio import build_problem, load_config, read_field, write_field

TINY = """
[problem]
d = 1
n = 32
n_t = 16
t = 0.02
gamma = 1.5
alpha = 0.5
b_x = 0.1*sin(1)
v1 = 0.05*cos(1)
v2 = arctan
psi = 0.05*cos(1)
m0 = 1 + 0.2*cos(1)

[mc]
paths = 20000
seed = 7
l1_tol = 0.08
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY)
    out = root / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return {"root": root, "cfg": str(cfg), "out": str(out)}


def test_solve_artifacts(workdir):
    out = workdir["out"]
    for name in ("u.field", "m.field", "path.log", "estimates.json", "estimates.txt"):
        assert os.path.exists(os.path.join(out, name))
    log = open(os.path.join(out, "path.log")).read().strip().splitlines()
    first = dict(kv.split("=") for kv in log[0].split())
    assert float(first["lambda"]) == 1.0
    assert float(first["residual"]) <= 1e-12
    last = dict(kv.split("=") for kv in log[-1].split())
    assert float(last["lambda"]) == 0.0
    assert float(last["residual"]) <= 1e-8


def test_check_round_trip(workdir):
    out = workdir["out"]
    code = main([
        "check", "--config", workdir["cfg"], "--out", str(workdir["root"] / "chk"),
        os.path.join(out, "u.field"), os.path.join(out, "m.field"),
    ])
    assert code == 0


def test_check_flags_corrupted_mass(workdir):
    out = workdir["out"]
    m, name = read_field(os.path.join(out, "m.field"))
    m.values[3] += 1e-3
    bad_path = str(workdir["root"] / "m_bad.field")
    write_field(bad_path, m, name)
    code = main([
        "check", "--config", workdir["cfg"], "--out", str(workdir["root"] / "chk2"),
        os.path.join(out, "u.field"), bad_path,
    ])
    assert code == 1


def test_missing_file_is_usage_error(workdir):
    code = main([
        "check", "--config", workdir["cfg"], "--out", str(workdir["root"] / "chk3"),
        str(workdir["root"] / "absent.field"),
        os.path.join(workdir["out"], "m.field"),
    ])
    assert code == 3


def test_grid_mismatch_is_usage_error(workdir, tmp_path):
    other = tmp_path / "other.cfg"
    other.write_text(TINY.replace("n = 32", "n = 64"))
    code = main([
        "check", "--config", str(other), "--out", str(tmp_path / "chk"),
        os.path.join(workdir["out"], "u.field"),
        os.path.join(workdir["out"], "m.field"),
    ])
    assert code == 3


def test_malformed_config_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY.replace("alpha = 0.5", "alpha = -1.0"))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3


def test_mc_command(workdir):
    out = workdir["out"]
    code = main([
        "mc", "--config", workdir["cfg"], "--out", str(workdir["root"] / "mc"),
        os.path.join(out, "u.field"), os.path.join(out, "m.field"),
    ])
    assert code == 0
    emp, name = read_field(str(workdir["root"] / "mc" / "empirical.field"))
    assert name == "empirical"
    vol = emp.grid.cell_volume
    assert np.max(np.abs(vol * np.sum(emp.values, axis=1) - 1.0)) < 1e-12


def test_mc_on_nonpositive_density_is_usage_error(workdir, tmp_path, capsys):
    out = workdir["out"]
    m, _ = read_field(os.path.join(out, "m.field"))
    m.values[3, 5] = -0.1
    bad = str(tmp_path / "m.field")
    write_field(bad, m, "m")
    capsys.readouterr()
    code = main([
        "mc", "--config", workdir["cfg"], "--out", str(tmp_path / "mc"),
        os.path.join(out, "u.field"), bad,
    ])
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("mc: ") and "slice 3, node 5" in err[0]


def test_legendre_command(workdir):
    code = main(["legendre", "--config", workdir["cfg"]])
    assert code == 0


def test_galerkin_spectrum_dump(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(TINY + "\n[output]\ngalerkin_modes = 6\n")
    out = tmp_path / "o"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    sigma = np.loadtxt(out / "galerkin_spectrum.txt")
    assert sigma.shape == (12,)
    assert np.all(sigma > 0.0)


def test_two_dimensional_config_solve(tmp_path):
    cfg = tmp_path / "flat2d.cfg"
    cfg.write_text(
        "\n".join(
            [
                "[problem]",
                "d = 2",
                "n = 8",
                "n_t = 6",
                "t = 0.02",
                "gamma = 1.5",
                "alpha = 0.5",
                "b_x = 0.1*sin(1)",
                "b_y = 0.05*sin(0,1)",
                "v1 = 0.05*cos(1,1)",
                "v2 = arctan",
                "psi = 0.05*cos(1)",
                "m0 = 1 + 0.2*cos(1) + 0.1*cos(0,1)",
                "",
                "[solver]",
                "dlambda_init = 0.25",
                "dlambda_max = 0.25",
            ]
        )
    )
    out = tmp_path / "o2d"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    u, _ = read_field(str(out / "u.field"))
    assert u.grid.dim == 2 and u.grid.num_nodes == 64


def test_inflated_horizon_contract(tmp_path):
    # a hundredfold horizon either converges with a certificate or fails in a
    # structured way; silent wrong answers are not an outcome
    cfg = tmp_path / "long.cfg"
    cfg.write_text(TINY.replace("t = 0.02", "t = 2.0"))
    out = tmp_path / "o"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2)
    log = open(out / "path.log").read()
    if code == 2:
        assert "horizon_failure" in log
    else:
        assert "lambda=0.000000" in log


def test_failed_linear_solve_ends_in_horizon_failure(tmp_path, monkeypatch):
    # every inner Krylov solve reports non-convergence: each one must count as a
    # Newton failure that halves the step, until the step underflows
    import scipy.sparse.linalg as spla

    monkeypatch.setattr(spla, "lgmres", lambda A, b, **kw: (np.zeros_like(b), 1))
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    with pytest.raises(HorizonError) as err:
        solve_path(build_problem(load_config(str(cfg))))
    assert [s.lam for s in err.value.states] == [1.0]
    out = tmp_path / "o"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    log = open(out / "path.log").read().strip().splitlines()
    assert log[-1].startswith("horizon_failure")
