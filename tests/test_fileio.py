import struct
import zlib

import numpy as np
import pytest

from mfgcon.fileio import (
    _HEADER,
    ConfigError,
    FieldFileError,
    build_problem,
    load_config,
    parse_field_expression,
    read_field,
    realize_field,
    report_text,
    write_field,
    write_plot_columns,
    write_report,
)
from mfgcon.continuation import SolverConfig
from mfgcon.estimates import CheckRecord, EstimateReport
from mfgcon.montecarlo import SDEConfig
from mfgcon.grids import PeriodicGrid, SpaceTimeField, TimeGrid, integrate

REFERENCE = """
[problem]
d = 1
n = 32
n_t = 8
t = 0.02
gamma = 1.5
alpha = 0.5
b_x = 0.1*sin(1)
v1 = 0.05*cos(1)
v2 = arctan
psi = 0.05*cos(1)
m0 = 1 + 0.2*cos(1)
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_field_terms():
    assert parse_field_expression("0", 1) == [(0.0, None, None)]
    assert parse_field_expression("1", 1) == [(1.0, None, None)]
    terms = parse_field_expression("1 + 0.2*cos(1) + -0.3*sin(2)", 1)
    assert terms == [(1.0, None, None), (0.2, "cos", (1,)), (-0.3, "sin", (2,))]
    terms2d = parse_field_expression("0.5*cos(1,2)", 2)
    assert terms2d == [(0.5, "cos", (1, 2))]
    # a single frequency in two dimensions means the first axis
    assert parse_field_expression("1.0*sin(3)", 2) == [(1.0, "sin", (3, 0))]
    with pytest.raises(ConfigError):
        parse_field_expression("cos(1)*0.2", 1)
    with pytest.raises(ConfigError):
        parse_field_expression("0.2*cos(1,2,3)", 2)


def test_signed_exponents_are_not_split_as_terms():
    spelled = parse_field_expression("1e+0 + 2E+1*cos(1) + 2.5e-1*cos(1)", 1)
    plain = parse_field_expression("1 + 20*cos(1) + 0.25*cos(1)", 1)
    assert spelled == plain == [(1.0, None, None), (20.0, "cos", (1,)), (0.25, "cos", (1,))]
    # a '+' after a space still separates terms, so a broken exponent is rejected
    with pytest.raises(ConfigError):
        parse_field_expression("1e +0", 1)


def test_realize_field_matches_analytic():
    grid = PeriodicGrid(1, 64)
    x = grid.coordinates()[0]
    f = realize_field(parse_field_expression("1 + 0.2*cos(1) + -0.5*sin(3)", 1), grid)
    expected = 1.0 + 0.2 * np.cos(2 * np.pi * x) - 0.5 * np.sin(6 * np.pi * x)
    assert np.max(np.abs(f - expected)) < 1e-14


def test_config_round_trip_and_problem_build(tmp_path):
    path = write_cfg(tmp_path, REFERENCE)
    cfg = load_config(path)
    assert cfg.points_per_dim == 32
    assert cfg.gamma == 1.5
    problem = build_problem(cfg)
    assert integrate(problem.m0, problem.grid) == pytest.approx(1.0, abs=1e-14)
    assert problem.time.dt == pytest.approx(0.02 / 8)


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))
    bad_alpha = REFERENCE.replace("alpha = 0.5", "alpha = -2.0")
    with pytest.raises(ConfigError, match="alpha"):
        load_config(write_cfg(tmp_path, bad_alpha, "a.cfg"))
    bad_gamma = REFERENCE.replace("gamma = 1.5", "gamma = 2.5")
    with pytest.raises(ConfigError, match="gamma"):
        load_config(write_cfg(tmp_path, bad_gamma, "b.cfg"))
    bad_m0 = REFERENCE.replace("m0 = 1 + 0.2*cos(1)", "m0 = 0.1 + 2.0*cos(1)")
    with pytest.raises(ConfigError, match="m0"):
        build_problem(load_config(write_cfg(tmp_path, bad_m0, "c.cfg")))


def test_empty_solver_and_mc_sections_keep_the_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, REFERENCE + "\n[solver]\n\n[mc]\n"))
    assert cfg.solver == SolverConfig()
    assert cfg.mc == SDEConfig()
    cfg = load_config(write_cfg(tmp_path, REFERENCE + "\n[solver]\nnewton_max_iters = 7\n", "k.cfg"))
    assert cfg.solver == SolverConfig(newton_max_iters=7)
    # one particle step per solver step, which a config may still spell out,
    # and b_y, a known key that a d = 1 run does not read
    text = REFERENCE + "b_y = 0.1*sin(1)\n\n[mc]\nseed = 3\nsubsteps = 1\n"
    cfg = load_config(write_cfg(tmp_path, text, "s.cfg"))
    assert cfg.mc == SDEConfig(seed=3) and len(cfg.b_terms) == 1
    # a key that is present is still checked
    for section, line in [("solver", "newton_max_iters = 0"), ("solver", "newton_tol = inf"),
                          ("mc", "paths = -5"), ("mc", "substeps = 1.5"),
                          ("mc", "substeps = 2")]:
        key = line.split()[0]
        text = REFERENCE + f"\n[{section}]\n{line}\n"
        with pytest.raises(ConfigError, match=key):
            load_config(write_cfg(tmp_path, text, f"{key}.cfg"))


@pytest.mark.parametrize("extra, name", [
    ("\n[solver]\nnewton_tolerance = 1e-6\n", "newton_tolerance"),
    ("\n[plot]\nplots = true\n", "plot"),
    ("m_floor = 1e-10\n", "m_floor"),  # a fixed constant, no longer a key
], ids=["misspelled_key", "unknown_section", "m_floor"])
def test_unknown_sections_and_keys_are_errors(tmp_path, extra, name):
    with pytest.raises(ConfigError, match=rf"unknown .*\b{name}\b"):
        load_config(write_cfg(tmp_path, REFERENCE + extra))


def test_plots_reads_any_boolean_spelling(tmp_path):
    for value, plots in [("yes", True), ("True", True), ("0", False)]:
        cfg = load_config(write_cfg(tmp_path, REFERENCE + f"\n[output]\nplots = {value}\n"))
        assert cfg.out_formats["plots"] is plots
    with pytest.raises(ConfigError, match="plots"):
        load_config(write_cfg(tmp_path, REFERENCE + "\n[output]\nplots = maybe\n", "bad.cfg"))


def test_field_file_round_trip(tmp_path):
    grid = PeriodicGrid(1, 16)
    time = TimeGrid(0.05, 4)
    rng = np.random.default_rng(0)
    stf = SpaceTimeField(grid, time, rng.normal(size=(5, 16)))
    path = str(tmp_path / "u.field")
    write_field(path, stf, "u")
    back, name = read_field(path)
    assert name == "u"
    assert np.array_equal(back.values, stf.values)
    assert back.grid == grid
    assert back.time.steps == 4


@pytest.mark.parametrize("name", ["a" * 31 + "é", "a" * 40], ids=["cut_in_a_character", "ascii_40"])
def test_field_name_past_the_header_is_refused(tmp_path, name):
    # 33 and 40 UTF-8 bytes: a cut would have written a name read_field
    # refuses, or a shorter one, without a word
    stf = SpaceTimeField.zeros(PeriodicGrid(1, 16), TimeGrid(0.05, 4))
    path = tmp_path / "f.field"
    with pytest.raises(ValueError, match="the header holds 32"):
        write_field(str(path), stf, name)
    assert list(tmp_path.iterdir()) == []
    # the longest names that fit come back whole
    fits = name.encode()[:32].decode(errors="ignore")
    write_field(str(path), stf, fits)
    assert read_field(str(path))[1] == fits


def test_field_file_detects_corruption(tmp_path):
    grid = PeriodicGrid(1, 16)
    time = TimeGrid(0.05, 4)
    stf = SpaceTimeField.zeros(grid, time)
    path = str(tmp_path / "m.field")
    write_field(path, stf, "m")
    blob = bytearray(open(path, "rb").read())
    blob[10] ^= 0xFF  # flip a header bit
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FieldFileError, match="checksum") as caught:
        read_field(path)
    assert str(caught.value).startswith(f"{path}: ")

    write_field(path, stf, "m")
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-16])  # truncate the payload
    with pytest.raises(FieldFileError, match="payload") as caught:
        read_field(path)
    assert str(caught.value).startswith(f"{path}: ")

    open(path, "wb").write(blob[:10])  # not even a header
    with pytest.raises(FieldFileError, match="too short") as caught:
        read_field(path)
    assert str(caught.value).startswith(f"{path}: ")

    with pytest.raises(FieldFileError):
        read_field(str(tmp_path / "nope.field"))


def test_field_file_refuses_a_nan_horizon(tmp_path):
    # a header with a consistent checksum but a NaN horizon is a bad grid; it
    # used to load and fail later as a grid mismatch against the config
    path = str(tmp_path / "m.field")
    write_field(path, SpaceTimeField.zeros(PeriodicGrid(1, 16), TimeGrid(0.05, 4)), "m")
    blob = bytearray(open(path, "rb").read())
    header = _HEADER.size
    struct.pack_into("<d", blob, header - 40, float("nan"))  # the horizon precedes the name
    struct.pack_into("<I", blob, header, zlib.crc32(bytes(blob[:header])))
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FieldFileError, match="bad grid in the header: horizon") as caught:
        read_field(path)
    assert str(caught.value).startswith(f"{path}: ")


def test_report_files_and_plot_columns(tmp_path):
    report = EstimateReport(
        records=[
            CheckRecord(name="demo", criterion="x", passed=True, values={"v": 1.0})
        ]
    )
    base = str(tmp_path / "estimates")
    write_report(base, report)
    import json

    data = json.loads(open(base + ".json").read())
    assert data["all_pass"] is True
    text = open(base + ".txt").read()
    assert "demo: pass" in text
    assert "aggregate: pass" in report_text(report)

    grid = PeriodicGrid(1, 8)
    time = TimeGrid(0.1, 2)
    stf = SpaceTimeField(grid, time, np.arange(24, dtype=float).reshape(3, 8))
    plot_path = str(tmp_path / "u.txt")
    write_plot_columns(plot_path, stf)
    table = np.loadtxt(plot_path)
    assert table.shape == (8, 4)  # x column plus three slices
    assert np.allclose(table[:, 1], np.arange(8.0))
