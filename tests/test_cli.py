import json
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from mfgcon.cli import main
from mfgcon.continuation import HorizonError, NewtonFailure, solve_path
from mfgcon.fileio import (
    _HEADER,
    _MAGIC,
    _VERSION,
    build_problem,
    load_config,
    read_field,
    write_field,
)
from mfgcon.grids import SpaceTimeField, TimeGrid

from conftest import count_krylov_work

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


FLAT2D = """
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
    # a path on 32 nodes is not nested, since its coarse grid would keep 16:
    # every record names the config grid; each names the first contraction of its correction, 0 at lambda = 1
    for line in log:
        record = dict(kv.split("=") for kv in line.split())
        assert (record["grid"], record["n_t"]) == ("32", "16")
        assert 0.0 <= float(record["theta"]) < 1.0
    assert float(first["theta"]) == 0.0 < float(last["theta"])


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


REFERENCE_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "reference.cfg")


@pytest.mark.parametrize(
    "command, old, new, extra, keyword",
    [
        ("solve", "dlambda_init = 0.1", "dlambda_init = 0.5", [], "dlambda"),
        ("solve", "v2 = arctan", "v2 = linear abc", [], "v2"),
        ("solve", "plots = false", "plots = false\ngalerkin_modes = 200", [], "galerkin_modes"),
        ("solve", "plots = false", "plots = false\ngalerkin_modes = -1", [], "galerkin_modes"),
        ("solve", "seed = 7", "seed = -3", [], "seed"),
        ("legendre", "", "", ["--seed", "-3"], "seed"),
        ("solve", "t = 0.05", "t = nan", [], "problem T"),
        ("solve", "t = 0.05", "t = inf", [], "problem T"),
        ("solve", "alpha = 0.5", "alpha = nan", [], "alpha"),
        ("solve", "v2 = arctan", "v2 = linear nan", [], "v2"),
        ("legendre", "n = 64", "n = 48", [], "power of two"),
        ("legendre", "weight = 1", "weight = 1 + -2.0*cos(1)", [], "weight"),
    ],
    ids=["solver_range", "v2_coef", "galerkin_above_nyquist", "galerkin_negative",
         "mc_seed", "cli_seed", "horizon_nan", "horizon_inf", "alpha_nan", "v2_nan",
         "legendre_grid", "legendre_weight"],
)
def test_config_errors_are_usage_errors(tmp_path, capsys, command, old, new, extra, keyword):
    text = open(REFERENCE_CFG).read()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new, 1))
    out = tmp_path / "o"
    out_arg = [] if command == "legendre" else ["--out", str(out)]
    code = main([command, "--config", str(cfg)] + out_arg + extra)
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"{command}: ") and keyword in err[0]
    assert not (out / "path.log").exists()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["solve"],
        ["solve", "--config", "{cfg}", "--out", "{out}", "--bogus"],
        ["frobnicate", "--config", "{cfg}"],
        ["solve", "--config", "{cfg}", "--out", "{out}", "--seed", "5"],
        ["check", "--config", "{cfg}", "--out", "{out}", "--seed", "5", "u.field", "m.field"],
        ["check", "--config", "{cfg}", "--out", "{out}", "--verbose", "u.field", "m.field"],
        ["legendre", "--config", "{cfg}", "--out", "{out}"],
    ],
    ids=["no_command", "missing_config", "unknown_flag", "unknown_command",
         "solve_seed", "check_seed", "check_verbose", "legendre_out"],
)
def test_command_line_errors_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "o"
    code = main([a.format(cfg=REFERENCE_CFG, out=out) for a in argv])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_top_level_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "command, reads_seed", [("solve", False), ("check", False), ("mc", True), ("legendre", True)]
)
def test_help_exits_zero_and_lists_seed_where_read(capsys, command, reads_seed):
    # each command lists exactly the options it reads
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out
    assert ("--seed" in listed) == reads_seed
    assert ("--out" in listed) == (command != "legendre")  # legendre writes nothing
    assert ("--verbose" in listed) == (command == "solve")


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


def test_mc_seed_overrides_config_seed(workdir):
    out = workdir["out"]
    fields = [os.path.join(out, "u.field"), os.path.join(out, "m.field")]
    empirical = {}
    for seed in (None, "7", "8"):  # [mc] seed = 7 in the config
        mc_out = workdir["root"] / f"mc_seed_{seed}"
        extra = [] if seed is None else ["--seed", seed]
        code = main(["mc", "--config", workdir["cfg"], "--out", str(mc_out)] + extra + fields)
        assert code == 0
        empirical[seed] = read_field(str(mc_out / "empirical.field"))[0].values
    assert np.array_equal(empirical[None], empirical["7"])
    assert not np.array_equal(empirical["7"], empirical["8"])


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


def _field_with_bad_grid(path):
    """A field file whose header has a valid checksum but describes a 3d grid."""
    header = _HEADER.pack(_MAGIC, _VERSION, b"<", 3, 32, 16, 0.02, b"m".ljust(32, b"\0"))
    blob = header + struct.pack("<I", zlib.crc32(header)) + bytes(8 * 17 * 32**3)
    open(path, "wb").write(blob)


@pytest.mark.parametrize("command", ["check", "mc"])
@pytest.mark.parametrize(
    "case", ["truncated", "three_dimensional", "density_time_grid", "undecodable_name"]
)
def test_bad_field_files_are_usage_errors(workdir, tmp_path, capsys, command, case):
    u_path = os.path.join(workdir["out"], "u.field")
    m_path = os.path.join(workdir["out"], "m.field")
    bad = str(tmp_path / "m.field")
    if case == "truncated":
        open(bad, "wb").write(open(m_path, "rb").read()[:-3])
    elif case == "three_dimensional":
        _field_with_bad_grid(bad)
    elif case == "undecodable_name":  # the header checksum holds, the name is not UTF-8
        blob = open(m_path, "rb").read()
        header = _HEADER.pack(*_HEADER.unpack(blob[: _HEADER.size])[:-1], b"\xff\xfe")
        open(bad, "wb").write(header + struct.pack("<I", zlib.crc32(header))
                              + blob[_HEADER.size + 4:])
    else:  # a uniform density on 8 time steps; the config has n_t = 16
        m, _ = read_field(m_path)
        time = TimeGrid(m.time.horizon, 8)
        write_field(bad, SpaceTimeField(m.grid, time, np.ones((9, m.grid.num_nodes))), "m")
    capsys.readouterr()
    code = main([command, "--config", workdir["cfg"], "--out", str(tmp_path / "o"),
                 u_path, bad])
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"{command}: ")
    if case == "undecodable_name":
        assert bad in err[0]


# One corrupted input per row: the field edited (None: the config's grid
# instead), the value written at slice 3, node 5, and the exit codes of check
# and mc.  A finite field whose gradient overflows fails check's estimates but
# gives mc no drift to move particles with.
CORRUPTIONS = {
    "nan_u": ("u", np.nan, 3, 3),
    "nan_m": ("m", np.nan, 3, 3),
    "inf_u": ("u", np.inf, 3, 3),
    "huge_u": ("u", 1e308, 1, 3),
    "zero_m": ("m", 0.0, 1, 3),
    "negative_m": ("m", -0.1, 1, 3),
    "truncated_m": ("m", "truncated", 3, 3),
    "other_grid": (None, None, 3, 3),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_corrupted_inputs_end_in_their_exit_codes(workdir, tmp_path, capsys, case):
    target, value, check_code, mc_code = CORRUPTIONS[case]
    cfg = workdir["cfg"]
    fields = {name: os.path.join(workdir["out"], f"{name}.field") for name in "um"}
    if target is None:
        cfg = tmp_path / "other.cfg"
        cfg.write_text(TINY.replace("n = 32", "n = 64"))
    else:
        bad = str(tmp_path / f"{target}.field")
        if value == "truncated":
            open(bad, "wb").write(open(fields[target], "rb").read()[:-3])
        else:
            field, name = read_field(fields[target])
            field.values[3, 5] = value
            write_field(bad, field, name)
        fields[target] = bad
    for command, expected in (("check", check_code), ("mc", mc_code)):
        capsys.readouterr()
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / command),
                     fields["u"], fields["m"]])
        assert code == expected, command
        err = capsys.readouterr().err.strip().splitlines()
        if case == "huge_u" and command == "check":  # u exceeds its explicit upper bound
            report = json.loads((tmp_path / "check" / "estimates.json").read_text())
            record = next(r for r in report["records"] if r["name"] == "value_lower_bound")
            assert not record["passed"] and record["values"]["upper_margin"] < -1e300
        if code != 3:  # a failed check, without a warning or a traceback
            assert err == []
            continue
        assert len(err) == 1 and err[0].startswith(f"{command}: ")
        if target is not None:  # the edited file is named
            assert fields[target] in err[0]
        if isinstance(value, float):  # and so is the slice
            assert "slice 3, node " in err[0]


# one or two edits of configs/reference.cfg each, with the exit code of solve
# and a bound on the operator applies of its path on each grid (N, n_t),
# coarsest first, at today's counts, so that a step controller that regresses
# on hard data fails here, and fails fast.  The d = 1 paths nest one level:
# 32 nodes and 32 steps under the config's 64 and 64
SOLVE_EDGES = {
    "horizon_5": ([("t = 0.05", "t = 5")], 0, {(32, 32): 26, (64, 64): 8}),
    "m0_near_zero": ([("m0 = 1 + 0.2*cos(1)", "m0 = 1 + 0.999*cos(1)")], 0,
                     {(32, 32): 34, (64, 64): 7}),
    "gamma_near_2": ([("gamma = 1.5", "gamma = 1.999"), ("alpha = 0.5", "alpha = 0")], 1,
                     {(32, 32): 46, (64, 64): 9}),
    "alpha_2_5": ([("alpha = 0.5", "alpha = 2.5")], 1, {(32, 32): 59, (64, 64): 10}),
    "steep_psi": ([("psi = 0.05*cos(1)", "psi = 20*cos(3)")], 1, {(32, 32): 161, (64, 64): 34}),
    "strong_b": ([("b_x = 0.1*sin(1)", "b_x = 50*sin(1)")], 1, {(32, 32): 1668, (64, 64): 403}),
    # the coarse march stalls, and so does the fallback march on the config grid
    "tol_below_roundoff": ([("newton_tol = 1e-10", "newton_tol = 1e-16")], 2,
                           {(32, 32): 70, (64, 64): 62}),
    "two_nodes": ([("n = 64", "n = 2")], 3, {}),
    "odd_nodes": ([("n = 64", "n = 63")], 3, {}),
    "misspelled_key": ([("newton_tol = 1e-10", "newton_tolerance = 1e-10")], 3, {}),
    # m0's modes 8 and 9 would alias on the 16x16 coarse grid, so the path
    # is marched on the config grid alone
    "aliased_2d": ([("d = 1", "d = 2"), ("n = 64", "n = 32"), ("n_t = 64", "n_t = 16"),
                    ("m0 = 1 + 0.2*cos(1)",
                     "m0 = 1.2 + 1.8*cos(1) + 1.6*cos(2) + 1.4*cos(3) + 1.2*cos(4) + 1.0*cos(5)"
                     " + 0.8*cos(6) + 0.6*cos(7) + 0.4*cos(8) + 0.2*cos(9)")], 0, {(32, 16): 32}),
}


@pytest.mark.parametrize("case", list(SOLVE_EDGES))
def test_solve_edge_configs_end_in_their_exit_codes(tmp_path, capsys, monkeypatch, case):
    edits, expected, applies = SOLVE_EDGES[case]
    count_krylov_work(monkeypatch, limits=applies)
    text = open(REFERENCE_CFG).read()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == expected
    err = capsys.readouterr().err.strip().splitlines()
    if expected == 3:
        assert len(err) == 1 and err[0].startswith("solve: ")
        assert not (out / "path.log").exists()
        return
    *records, last = (out / "path.log").read_text().splitlines()
    if expected == 2:
        assert len(err) == 1 and err[0].startswith("solve: step underflow")
        assert last.startswith("horizon_failure at lambda=")
        return
    assert err == []
    record = dict(item.split("=") for item in last.split())
    assert float(record["lambda"]) == 0.0
    assert float(record["residual"]) <= 1e-10  # certified at the config's newton_tol
    # the records name the grids the work was counted on, coarsest first, and
    # the last one the config grid
    dim = 2 if "d = 2" in text else 1
    grids = [dict(item.split("=") for item in line.split())["grid"] for line in records + [last]]
    assert list(dict.fromkeys(grids)) == ["x".join([str(n)] * dim) for n, _ in applies]
    n = re.search(r"^n = (\d+)$", text, re.M).group(1)
    assert record["grid"] == "x".join([n] * dim)


def test_legendre_command(workdir, capsys):
    code = main(["legendre", "--config", workdir["cfg"]])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("double_transform_max_deviation=")
    assert lines[1].startswith("growth_ratio_range=")
    assert lines[2].startswith("lagrangian_envelope_margin=")


def test_check_reports_nonpositive_density_as_a_failed_check(workdir, tmp_path, capsys):
    out = workdir["out"]
    m, _ = read_field(os.path.join(out, "m.field"))
    m.values[3, 5] = -0.1
    bad = str(tmp_path / "m.field")
    write_field(bad, m, "m")
    capsys.readouterr()
    code = main([
        "check", "--config", workdir["cfg"], "--out", str(tmp_path / "chk"),
        os.path.join(out, "u.field"), bad,
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "inverse_density: FAIL" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("text", [TINY, FLAT2D], ids=["d1", "d2"])
def test_solve_and_check_make_no_complex_fft(tmp_path, monkeypatch, text):
    # every spectral step works on the real half spectrum
    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT called")

    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    fields = [str(out / "u.field"), str(out / "m.field")]
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "chk")] + fields) == 0


def test_galerkin_spectrum_dump(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(TINY + "\n[output]\ngalerkin_modes = 6\n")
    out = tmp_path / "o"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    text = (out / "galerkin_spectrum.txt").read_text()
    assert text.startswith("# singular values of the shooting map at lambda=0\n")
    sigma = np.loadtxt(out / "galerkin_spectrum.txt")
    assert sigma.shape == (12,)
    assert np.all(sigma > 0.0) and np.all(np.diff(sigma) <= 0.0)


def _cli_imports(*argv) -> tuple[int, set]:
    """Exit code of ``python -m mfgcon.cli argv`` in a fresh process, and the modules it imported."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mfgcon.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    modules = {line.rsplit("|", 1)[1].strip()
               for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, modules


def test_no_command_loads_scipy(tmp_path):
    # the package depends on numpy alone, the Galerkin spectrum dump included
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(TINY + "\n[output]\ngalerkin_modes = 6\n")
    out = tmp_path / "o"
    fields = [str(out / "u.field"), str(out / "m.field")]
    runs = [
        ("solve", "--config", str(cfg), "--out", str(out)),
        ("check", "--config", str(cfg), "--out", str(tmp_path / "chk"), *fields),
        ("mc", "--config", str(cfg), "--out", str(tmp_path / "mc"), *fields),
        ("legendre", "--config", str(cfg)),
    ]
    for argv in runs:
        code, modules = _cli_imports(*argv)
        assert code == 0, argv
        assert "mfgcon.estimates" in modules
        assert not any(name.split(".")[0] == "scipy" for name in modules), argv
    assert np.loadtxt(out / "galerkin_spectrum.txt").shape == (12,)


def test_two_dimensional_config_solve(tmp_path):
    cfg = tmp_path / "flat2d.cfg"
    cfg.write_text(FLAT2D)
    out = tmp_path / "o2d"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    u, _ = read_field(str(out / "u.field"))
    assert u.grid.dim == 2 and u.grid.num_nodes == 64
    # an 8x8 path is not nested, since its coarse grid would keep 16 nodes
    for line in (out / "path.log").read_text().strip().splitlines():
        record = dict(kv.split("=") for kv in line.split())
        assert (record["grid"], record["n_t"]) == ("8x8", "6")


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
    # one operator apply per solve meets no Krylov tolerance: each solve must
    # count as a Newton failure that halves the step, until the step underflows
    from mfgcon import linearized

    monkeypatch.setattr(linearized, "_MAX_APPLIES", 1)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    with pytest.raises(HorizonError) as err:
        solve_path(build_problem(load_config(str(cfg))))
    assert [s.lam for s in err.value.states] == [1.0]
    assert err.value.reason == "inner solve" and "inner solve" in str(err.value)
    failure = err.value.__context__
    assert isinstance(failure, NewtonFailure) and failure.reason == "inner solve"
    assert isinstance(failure.__cause__, linearized.LinearSolveError)
    assert re.fullmatch(
        r"inner linear solve failed: Krylov solve did not converge: relative residual "
        r"estimate \S+ > rtol \S+ after 1 applies",
        str(failure),
    )
    out = tmp_path / "o"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    log = open(out / "path.log").read().strip().splitlines()
    assert log[-1].startswith("horizon_failure")


NESTED2D = FLAT2D.replace("n = 8", "n = 32").replace("n_t = 6", "n_t = 8")


def test_nested_solve_logs_the_coarsest_grid_first(tmp_path):
    # 32x32 nests 16x16, which nests 8x8: the 8x8 path, then the lifted
    # lam = 0 corrections on 16x16 and 32x32, each certified on its own grid
    cfg = tmp_path / "nested.cfg"
    cfg.write_text(NESTED2D)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    log = (out / "path.log").read_text().strip().splitlines()
    records = [dict(kv.split("=") for kv in line.split()) for line in log]
    grids = [(r["grid"], r["n_t"]) for r in records]
    assert grids[-2:] == [("16x16", "4"), ("32x32", "8")]
    assert set(grids[:-2]) == {("8x8", "2")}
    assert float(records[0]["lambda"]) == 1.0
    assert [float(r["lambda"]) for r in records[-3:]] == [0.0, 0.0, 0.0]
    assert all(float(r["residual"]) <= 1e-10 for r in records)
    stf, _ = read_field(str(out / "u.field"))
    assert stf.grid.shape == (32, 32) and stf.time.steps == 8


def test_nested_solve_falls_back_to_the_config_grid(tmp_path, monkeypatch):
    # every Newton correction on the config grid fails: the 8x8 path and the
    # 16x16 correction are certified and logged on their own grids, coarsest
    # first, the fallback march from lambda = 1 underflows, and the fields
    # written are on the config grid
    from mfgcon import continuation

    real = continuation.newton_correct

    def coarse_only(problem, *args, **kwargs):
        if problem.grid.points_per_dim == 32:
            raise continuation.NewtonFailure("fine grid", [], "inner solve")
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(continuation, "newton_correct", coarse_only)
    cfg = tmp_path / "nested.cfg"
    cfg.write_text(NESTED2D)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    log = (out / "path.log").read_text().strip().splitlines()
    assert log[-1].startswith("horizon_failure")
    records = [dict(kv.split("=") for kv in line.split()) for line in log[:-1]]
    grids = [(r["grid"], r["n_t"]) for r in records]
    assert grids[-1] == ("32x32", "8") and float(records[-1]["lambda"]) == 1.0
    assert grids[-2] == ("16x16", "4") and float(records[-2]["lambda"]) == 0.0
    assert set(grids[:-2]) == {("8x8", "2")}
    assert float(records[0]["lambda"]) == 1.0 and float(records[-3]["lambda"]) == 0.0
    for name in ("u.field", "m.field"):
        stf, _ = read_field(str(out / name))
        assert stf.grid.shape == (32, 32) and stf.time.steps == 8
    fields = [str(out / "u.field"), str(out / "m.field")]
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "chk")] + fields) in (0, 1)
