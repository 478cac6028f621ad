"""Config parsing, binary field files, and report persistence.

Configs are INI-style text with [problem], [solver], [mc] and [output]
sections.  Functional data is written as trigonometric polynomials, e.g.

    m0 = 1 + 0.2*cos(1)        b_x = 0.1*sin(1)       psi = 0.05*cos(2,1)

so configs stay exact, reproducible and grid independent.  Solutions are
stored as little-endian float64 payloads behind a fixed checksummed header;
writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import re
import struct
import zlib
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .continuation import SolverConfig
from .estimates import EstimateReport
from .grids import PeriodicGrid, SpaceTimeField, TimeGrid, integrate
from .hamiltonians import HamiltonianModel, LagrangianModel
from .montecarlo import SDEConfig
from .system import MFGProblem, Potential

__all__ = [
    "ConfigError",
    "FieldFileError",
    "RunConfig",
    "load_config",
    "build_problem",
    "parse_field_expression",
    "write_field",
    "read_field",
    "write_report",
    "report_text",
    "write_plot_columns",
]


class ConfigError(ValueError):
    """A config value is missing, malformed, or violates a constraint."""


class FieldFileError(ValueError):
    """A field file failed structural validation."""


_TERM = re.compile(
    r"^\s*(?P<coef>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"(?:\s*\*\s*(?P<fn>cos|sin)\((?P<freq>-?\d+(?:\s*,\s*-?\d+)?)\))?\s*$"
)


def parse_field_expression(text: str, dim: int):
    """Parse 'c0 + a*cos(k) + b*sin(k,l)' into a list of (coef, fn, kvec) terms."""
    # split on '+' while keeping negative coefficients and signed exponents intact
    pieces = re.split(r"\s*(?<![eE])\+\s*", text.strip())
    terms = []
    for piece in pieces:
        m = _TERM.match(piece)
        if m is None:
            raise ConfigError(f"cannot parse field term {piece!r}")
        coef = float(m.group("coef"))
        if m.group("fn") is None:
            terms.append((coef, None, None))
            continue
        kvec = tuple(int(s) for s in m.group("freq").split(","))
        if len(kvec) not in (1, dim):
            raise ConfigError(
                f"term {piece!r} has {len(kvec)} frequencies for a {dim}-dimensional field"
            )
        if len(kvec) == 1 and dim == 2:
            kvec = (kvec[0], 0)
        terms.append((coef, m.group("fn"), kvec))
    return terms


def realize_field(terms, grid: PeriodicGrid) -> np.ndarray:
    """The node values on ``grid`` of a parsed term list, shape (N**d,)."""
    coords = grid.coordinates()
    out = np.zeros(grid.shape)
    for coef, fn, kvec in terms:
        if fn is None:
            out = out + coef
            continue
        phase = 2.0 * np.pi * sum(k * c for k, c in zip(kvec, coords))
        out = out + coef * (np.cos(phase) if fn == "cos" else np.sin(phase))
    return out.ravel()


@dataclass
class RunConfig:
    """Validated run description: problem data plus solver, MC and output blocks."""

    dim: int
    points_per_dim: int
    time_steps: int
    horizon: float
    gamma: float
    alpha: float
    weight_terms: list
    b_terms: list          # one term list per axis
    v1_terms: list
    v2_kind: str
    v2_coef: float
    v2_exponent: float
    psi_terms: list
    m0_terms: list
    solver: SolverConfig
    mc: SDEConfig
    mc_l1_tol: float
    out_formats: dict = dc_field(default_factory=dict)


def _get(section, key, cast, default=None, positive=False, name=""):
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing key {name or key!r}")
        return default
    try:
        val = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name or key!r}: {raw!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{name or key!r} must be finite, got {raw!r}")
    if positive and val <= 0:
        raise ConfigError(f"{name or key!r} must be positive, got {val}")
    return val


def _present(section, config_class) -> dict:
    """The fields of ``config_class`` that ``section`` sets, cast to the type of their defaults.

    An absent key keeps the default; the class checks the ranges.
    """
    return {
        f.name: _get(section, f.name, type(f.default))
        for f in fields(config_class)
        if f.name in section
    }


# The keys each section may set.  [solver] and [mc] set the fields of the
# classes they build; b_y is known in d = 1 too, and substeps only says 1.
_KNOWN_KEYS = {
    "problem": ("d", "n", "n_t", "t", "gamma", "alpha", "weight", "b_x", "b_y",
                "v1", "v2", "psi", "m0"),
    "solver": tuple(f.name for f in fields(SolverConfig)),
    "mc": tuple(f.name for f in fields(SDEConfig)) + ("substeps", "l1_tol"),
    "output": ("plots", "galerkin_modes"),
}


def _check_names(parser: configparser.ConfigParser) -> None:
    """Reject a section or key nothing reads, so that a misspelling is not ignored."""
    for name in parser.sections():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = [key for key in parser[name] if key not in _KNOWN_KEYS[name]]
        if unknown:
            raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in [{name}]")


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    _check_names(parser)
    if "problem" not in parser:
        raise ConfigError("config needs a [problem] section")
    prob = parser["problem"]
    dim = _get(prob, "d", int, default=1)
    if dim not in (1, 2):
        raise ConfigError(f"problem d must be 1 or 2, got {dim}")
    n = _get(prob, "n", int, positive=True, name="problem N")
    n_t = _get(prob, "n_t", int, positive=True, name="problem N_t")
    horizon = _get(prob, "t", float, positive=True, name="problem T")
    gamma = _get(prob, "gamma", float)
    if not 1.0 < gamma < 2.0:
        raise ConfigError(f"gamma must lie in (1, 2), got {gamma}")
    alpha = _get(prob, "alpha", float)
    if alpha < 0.0:
        raise ConfigError(f"alpha must be nonnegative, got {alpha}")

    def terms(key, default):
        return parse_field_expression(prob.get(key, default), dim)

    b_terms = [terms("b_x", "0")]
    if dim == 2:
        b_terms.append(terms("b_y", "0"))
    v2_parts = prob.get("v2", "arctan").split()
    v2_kind = v2_parts[0]
    try:
        v2_coef = float(v2_parts[1]) if len(v2_parts) > 1 else 1.0
        v2_exponent = float(v2_parts[2]) if len(v2_parts) > 2 else 2.0
        if not (math.isfinite(v2_coef) and math.isfinite(v2_exponent)):
            raise ValueError("non-finite v2 number")
    except ValueError as exc:
        raise ConfigError(f"bad value for 'v2': {prob['v2']!r}") from exc

    for name in ("solver", "mc", "output"):
        if name not in parser:
            parser.add_section(name)
    mc_sec, out_sec = parser["mc"], parser["output"]
    # one particle step per solver step; a config may still say so
    if "substeps" in mc_sec and _get(mc_sec, "substeps", int) != 1:
        raise ConfigError("'substeps' must be 1: the particle step is the solver step")
    try:
        solver = SolverConfig(**_present(parser["solver"], SolverConfig))
        mc = SDEConfig(**_present(mc_sec, SDEConfig))
    except ValueError as exc:  # a range SolverConfig or SDEConfig rejects
        raise ConfigError(str(exc)) from exc
    galerkin_modes = _get(out_sec, "galerkin_modes", int, default=0)
    if galerkin_modes < 0:
        raise ConfigError(f"'galerkin_modes' must be nonnegative, got {galerkin_modes}")
    try:
        plots = out_sec.getboolean("plots", fallback=False)
    except ValueError as exc:
        raise ConfigError(f"bad value for 'plots': {out_sec['plots']!r}") from exc
    out_formats = {"plots": plots, "galerkin_modes": galerkin_modes}

    return RunConfig(
        dim=dim,
        points_per_dim=n,
        time_steps=n_t,
        horizon=horizon,
        gamma=gamma,
        alpha=alpha,
        weight_terms=terms("weight", "1"),
        b_terms=b_terms,
        v1_terms=terms("v1", "0"),
        v2_kind=v2_kind,
        v2_coef=v2_coef,
        v2_exponent=v2_exponent,
        psi_terms=terms("psi", "0"),
        m0_terms=terms("m0", "1"),
        solver=solver,
        mc=mc,
        mc_l1_tol=_get(mc_sec, "l1_tol", float, default=0.05, positive=True),
        out_formats=out_formats,
    )


def build_problem(cfg: RunConfig) -> MFGProblem:
    try:
        grid = PeriodicGrid(cfg.dim, cfg.points_per_dim)
        time = TimeGrid(cfg.horizon, cfg.time_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    weight = realize_field(cfg.weight_terms, grid)
    if np.min(weight) <= 0.0:
        raise ConfigError("Hamiltonian weight must be positive everywhere")
    m0 = realize_field(cfg.m0_terms, grid)
    if np.min(m0) <= 0.0:
        raise ConfigError("m0 must be positive everywhere")
    m0 = m0 / integrate(m0, grid)
    v1 = realize_field(cfg.v1_terms, grid)
    try:
        ham = HamiltonianModel(cfg.gamma, weight)
        potential = Potential(
            v1=v1, v2_kind=cfg.v2_kind, coef=cfg.v2_coef, exponent=cfg.v2_exponent
        )
        problem = MFGProblem(
            grid=grid,
            time=time,
            alpha=cfg.alpha,
            hamiltonian=ham,
            b=np.stack([realize_field(t, grid) for t in cfg.b_terms]),
            potential=potential,
            psi=realize_field(cfg.psi_terms, grid),
            m0=m0,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return problem


def lagrangian_from_config(cfg: RunConfig, grid: PeriodicGrid) -> LagrangianModel:
    gamma_prime = cfg.gamma / (cfg.gamma - 1.0)
    return LagrangianModel(gamma_prime, realize_field(cfg.weight_terms, grid))


# ---------------------------------------------------------------------------
# binary field files
# ---------------------------------------------------------------------------

_MAGIC = b"MFGF"
_VERSION = 1
_HEADER = struct.Struct("<4sHcBIId32s")


def write_field(path: str, stf: SpaceTimeField, name: str) -> None:
    """Write a space-time field; atomic via temp file plus rename.

    The header holds ``name`` in 32 UTF-8 bytes; a longer name raises
    ValueError before anything is written.
    """
    raw_name = name.encode()
    if len(raw_name) > 32:
        raise ValueError(
            f"field name {name!r} takes {len(raw_name)} UTF-8 bytes; the header holds 32"
        )
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        b"<",
        stf.grid.dim,
        stf.grid.points_per_dim,
        stf.time.steps,
        stf.time.horizon,
        raw_name.ljust(32, b"\0"),
    )
    checksum = struct.pack("<I", zlib.crc32(header))
    payload = np.ascontiguousarray(stf.values, dtype="<f8").tobytes()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(checksum)
        fh.write(payload)
    os.replace(tmp, path)


def read_field(path: str):
    """Read a space-time field; returns (field, name).

    Raises FieldFileError, naming the file, for a file that is unreadable,
    malformed, or holds a value that is not finite.
    """

    def error(reason: str) -> FieldFileError:
        return FieldFileError(f"{path}: {reason}")

    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FieldFileError(f"cannot read {path!r}: {exc}") from exc
    if len(blob) < _HEADER.size + 4:
        raise error("file too short for a field header")
    header = blob[: _HEADER.size]
    (magic, version, endian, dim, n, n_t, horizon, raw_name) = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise error("bad magic, not a field file")
    if version != _VERSION:
        raise error(f"unsupported format version {version}")
    if endian != b"<":
        raise error("unsupported endianness tag")
    (checksum,) = struct.unpack_from("<I", blob, _HEADER.size)
    if checksum != zlib.crc32(header):
        raise error("header checksum mismatch")
    try:
        grid = PeriodicGrid(dim, n)
        time = TimeGrid(horizon, n_t)
    except ValueError as exc:
        raise error(f"bad grid in the header: {exc}") from exc
    expected = (n_t + 1) * grid.num_nodes
    payload_bytes = len(blob) - _HEADER.size - 4
    if payload_bytes != 8 * expected:
        raise error(f"payload holds {payload_bytes} bytes, header promises {8 * expected}")
    values = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size + 4).reshape(n_t + 1, -1)
    finite = np.isfinite(values)
    if not finite.all():
        n_slice, n_node = divmod(int(np.argmin(finite)), grid.num_nodes)
        raise error(
            f"value {values[n_slice, n_node]} at slice {n_slice}, node {n_node} is not finite"
        )
    try:
        name = raw_name.rstrip(b"\0").decode()
    except UnicodeDecodeError as exc:
        raise error(f"field name is not UTF-8: {exc}") from exc
    return SpaceTimeField(grid, time, values.copy()), name


# ---------------------------------------------------------------------------
# reports and plot columns
# ---------------------------------------------------------------------------


def report_text(report: EstimateReport) -> str:
    return "\n".join(report.lines()) + "\n"


def write_report(path_base: str, report: EstimateReport) -> None:
    tmp = path_base + ".json.tmp"
    with open(tmp, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    os.replace(tmp, path_base + ".json")
    tmp = path_base + ".txt.tmp"
    with open(tmp, "w") as fh:
        fh.write(report_text(report))
    os.replace(tmp, path_base + ".txt")


def write_plot_columns(path: str, stf: SpaceTimeField) -> None:
    """Plain columnar text: node coordinate(s), then one column per slice."""
    coords = stf.grid.coordinates()
    cols = [c.ravel() for c in coords] + [stf.values[j] for j in range(stf.time.num_slices)]
    data = np.column_stack(cols)
    header = " ".join(
        [f"x{a}" for a in range(stf.grid.dim)]
        + [f"t={t:.6g}" for t in stf.time.times()]
    )
    tmp = path + ".tmp"
    np.savetxt(tmp, data, header=header)
    os.replace(tmp, path)
