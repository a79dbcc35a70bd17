"""Config-driven command line producing machine-readable reports.

Each subcommand runs one experiment from the library against a configured
measure, writes a JSON or CSV report, and exits 0 only if every tolerance
check passed (1 on a tolerance failure, 2 on a config or runtime error,
printed under its error class).  Reports carry the toolkit version and a
hash of the effective config, and contain no timestamps, so identical
configs give byte-identical output.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
# argparse's messages import locale on first use; importing it here keeps
# that cost out of the report's compute time
import locale  # noqa: F401
import math
import random
import sys

# hashlib loads OpenSSL (3.5 MiB, about 4 ms) to hash one small config; the
# interpreter's built-in module gives the same digest without it
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

import numpy as np

from . import __version__
from .counterexample import CounterexampleParams, full_report
from .errors import (ConfigError, FocklabError, NonFiniteError,
                     ResourceError)
from .fock import FockParams, kernel_continuity_probe
from .lattice import convergence_study, rigidity_experiment
from .measure import (GaussianDensity, PointMasses, UniformDisk,
                      berezin_measure, berezin_lr_norm, is_positive,
                      support_radius_of, total_mass, total_variation)
from .toeplitz import (adjoint_isometry_check, build_from_measure,
                       build_hankel, identity_operator, schatten_norm,
                       singular_values, trace, trace_pairing,
                       trace_via_berezin, transform_l1_norm)

# the interpreter's last collections at exit walk every object still alive,
# about 21,600 from the imports alone (15 ms of a report's 21 ms teardown);
# frozen objects are skipped.  Frozen at exit, not here, so that garbage
# made while importing is still freed; every file a report writes is
# closed before main returns, so no file waits on those collections
atexit.register(gc.freeze)

DEFAULT_R_VALUES = tuple(2.0 ** -n for n in range(7))
# the largest truncation a config may ask for: at N = 4096 on the unit disk
# trace-check peaks at about 19 N^2 bytes of memory and schatten at 55 N^2
TRUNCATION_BUDGET = 4096
# floats a matrix report formats and writes at a time
_BLOCK_FLOATS = 2 ** 12

DEFAULT_TOLERANCES = {
    "mass_identity": 1e-7,        # | ||transform||_1 - |mu|(C) | / max(1, TV)
    "trace": 1e-9,                # |trace - (alpha/pi) mu(C)|
    "trace_transform": 1e-7,      # trace vs transform integral, relative
    "adjoint_isometry": 1e-10,    # S1 of T vs T*, relative
    "transform_bound": 1e-8,      # ||transform||_1 <= S1 + tol
    "nuclear_ceiling": 1e-9,      # bound <= (alpha/pi)|mu|(C) + tol
    "error_decrease": 1e-12,      # allowed rise between consecutive s1 errors
    "rigidity_slack": 0.05,       # upper <= lower * (1 + slack)
    "pairing": 1e-6,              # matrix vs quadrature pairing, relative
    "pairing_identity": 1e-10,    # lacunary pairing-term residual
    "continuity": 2.0,            # distance / (sqrt(alpha) * offset) cap
    "continuity_monotone": 1e-12, # allowed rise between shrinking offsets
}


# ---------------------------------------------------------------------------
# config parsing

def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}" if path else message)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    return obj


def _check_keys(obj: dict, path: str, allowed):
    for key in obj:
        if key not in allowed:
            _fail(_join(path, key), "unknown key")


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    out = float(value)
    if not math.isfinite(out):
        _fail(path, "must be finite")
    return out


def _positive_real(value, path: str) -> float:
    out = _real(value, path)
    if not out > 0.0:
        _fail(path, "must be positive")
    return out


def _truncation(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    if value < 8:
        _fail(path, "must be at least 8")
    if value > TRUNCATION_BUDGET:
        raise ResourceError(
            f"truncation {value} is over the budget of {TRUNCATION_BUDGET}: "
            f"an N x N report peaks at up to about 150 N^2 bytes")
    return value


def _fields(obj, path: str, table: dict) -> dict:
    """Parse an object by its field table, key -> (parser, default), where
    a default of ... marks a required field: unknown keys are refused
    first, then missing required fields, then each field in table order."""
    _check_keys(_require_mapping(obj, path), path, table)
    for key, (_, default) in table.items():
        if default is ... and key not in obj:
            _fail(_join(path, key), "required")
    return {key: parse(obj.get(key, default), _join(path, key))
            for key, (parse, default) in table.items()}


def _points(raw, path: str) -> list:
    if not isinstance(raw, list):
        _fail(path, "expected a list")
    return [_fields(entry, f"{path}[{i}]", _POINT)
            for i, entry in enumerate(raw)]


_POINT = {"x": (_real, ...), "y": (_real, ...), "w_re": (_real, 1.0),
          "w_im": (_real, 0.0)}
_KIND = (lambda value, path: value, ...)  # matched to its table already
_MEASURES = {
    "point_masses": {"type": _KIND, "points": (_points, None)},
    "uniform_disk": {"type": _KIND, "radius": (_positive_real, ...),
                     "amplitude": (_real, 1.0)},
    "gaussian": {"type": _KIND, "amplitude": (_real, 1.0),
                 "beta": (_positive_real, ...), "x": (_real, 0.0),
                 "y": (_real, 0.0)},
}


def _measure(obj, path: str) -> dict | None:
    if obj is None:
        return None
    kind = _require_mapping(obj, path).get("type")
    if not isinstance(kind, str) or kind not in _MEASURES:
        _fail(_join(path, "type"),
              "expected one of point_masses, uniform_disk, gaussian")
    return _fields(obj, path, _MEASURES[kind])


def _exponents(obj, path: str) -> tuple:
    table = {"p": (_real, 4.0 / 3.0), "q": (_real, 4.0)}
    exponents = _fields({} if obj is None else obj, path, table)
    for name, value in exponents.items():
        if value < 1.0:
            _fail(_join(path, name), "must be at least 1")
    return exponents["p"], exponents["q"]


def _r_values(raw, path: str) -> tuple:
    if raw is None:
        return DEFAULT_R_VALUES
    if not isinstance(raw, list) or not raw:
        _fail(path, "expected a nonempty list")
    values = tuple(_positive_real(v, f"{path}[{i}]")
                   for i, v in enumerate(raw))
    if any(b >= a for a, b in zip(values, values[1:])):
        _fail(path, "must be strictly decreasing")
    return values


def _tolerances(obj, path: str) -> dict:
    tolerances = {}
    for name, value in _require_mapping({} if obj is None else obj,
                                        path).items():
        if name not in DEFAULT_TOLERANCES:
            _fail(_join(path, name), "unknown tolerance name")
        tolerances[name] = _positive_real(value, _join(path, name))
    return tolerances


def _format(value, path: str) -> str:
    if value not in ("json", "csv"):
        _fail(path, "expected json or csv")
    return value


def _path(value, path: str) -> str | None:
    if value is not None and not isinstance(value, str):
        _fail(path, "expected a string")
    return value


def _output(obj, path: str) -> tuple:
    table = {"format": (_format, "json"), "path": (_path, None)}
    return tuple(_fields({} if obj is None else obj, path, table).values())


class RunConfig:
    """Validated, fully defaulted run configuration."""

    __slots__ = ("alpha", "truncation", "measure", "exponents", "r_values",
                 "tolerances", "output_format", "output_path")

    def __init__(self, alpha: float, truncation: int, measure: dict | None,
                 exponents: tuple, r_values: tuple, tolerances: dict,
                 output_format: str, output_path: str | None):
        self.alpha, self.truncation, self.measure = alpha, truncation, measure
        self.exponents, self.r_values = exponents, r_values
        self.tolerances = tolerances
        self.output_format, self.output_path = output_format, output_path

    def normalized(self) -> dict:
        return {
            "alpha": self.alpha,
            "truncation": self.truncation,
            "measure": self.measure,
            "exponents": {"p": self.exponents[0], "q": self.exponents[1]},
            "r_values": list(self.r_values),
            "tolerances": {k: self.tolerances[k]
                           for k in sorted(self.tolerances)},
            "output": {"format": self.output_format,
                       "path": self.output_path},
        }

    def digest(self) -> str:
        # the output block says where to write, not what to compute, so it
        # stays out of the hash; otherwise --out would change the report body
        payload = self.normalized()
        del payload["output"]
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return _sha256(canonical.encode("utf-8")).hexdigest()

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def params(self) -> FockParams:
        return FockParams(alpha=self.alpha)

    def require_measure(self):
        if self.measure is None:
            raise ConfigError("measure: required for this subcommand")
        mu = build_measure(self.measure)
        try:
            scale = (self.alpha / math.pi) * total_variation(mu)
        except OverflowError:  # fsum of point-mass weights
            scale = math.inf
        if not math.isfinite(scale):
            raise ConfigError(f"measure: (alpha/pi)|mu|(C) of the "
                              f"{self.measure['type']} measure overflows")
        return mu


_TOP = {"alpha": (_positive_real, 1.0), "truncation": (_truncation, 64),
        "measure": (_measure, None), "exponents": (_exponents, None),
        "r_values": (_r_values, None), "tolerances": (_tolerances, None),
        "output": (_output, None)}


def parse_config(text: str) -> RunConfig:
    """Parse and validate config JSON; unknown keys name their dotted path."""
    try:
        raw = json.loads(text)
    # a decode error, an integer too long to convert, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"not valid JSON: {exc}")
    top = _fields(raw, "", _TOP)
    output_format, output_path = top.pop("output")
    return RunConfig(**top, output_format=output_format,
                     output_path=output_path)


def build_measure(spec: dict):
    """Turn a normalized measure spec into a measure object."""
    kind = spec["type"]
    if kind == "point_masses":
        points = tuple((complex(e["x"], e["y"]), complex(e["w_re"], e["w_im"]))
                       for e in spec["points"])
        return PointMasses(points)
    if kind == "uniform_disk":
        return UniformDisk(spec["amplitude"], spec["radius"])
    return GaussianDensity(amplitude=spec["amplitude"], beta=spec["beta"],
                           center=complex(spec["x"], spec["y"]))


# ---------------------------------------------------------------------------
# report assembly

def _check(name: str, value: float, tolerance: float, passed: bool) -> dict:
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "passed": bool(passed)}


def _bounded(config: RunConfig, name: str, value: float) -> dict:
    tol = config.tolerance(name)
    return _check(name, value, tol, value <= tol)


def _row_blocks(entries: np.ndarray):
    """(row count, the repr of each float) of a finite complex matrix, a
    block of rows at a time, the floats in [re, im] order.

    Each distinct magnitude is formatted once, and a float's string is its
    magnitude's by rank: repr(-x) is "-" + repr(x) for every finite x,
    -0.0 included.
    """
    floats = entries.view(float).reshape(entries.shape[0], -1)
    magnitudes = np.abs(floats).ravel()
    magnitudes.sort()
    distinct = magnitudes[np.concatenate(
        ([True], magnitudes[1:] != magnitudes[:-1]))]
    del magnitudes
    table = np.fromiter(map(repr, distinct.tolist()), dtype=object,
                        count=distinct.size)
    step = max(1, _BLOCK_FLOATS // floats.shape[1])
    for start in range(0, floats.shape[0], step):
        block = floats[start:start + step].ravel()
        strings = table[np.searchsorted(distinct, np.abs(block))]
        negative = np.signbit(block)
        strings[negative] = "-" + strings[negative]
        yield len(block) // floats.shape[1], tuple(strings.tolist())


def render_json(report: dict, write) -> None:
    """Write json.dumps(report, indent=2) and a newline through ``write``
    (such as sys.stdout.write).

    A matrix report's entries stand in the envelope as a placeholder
    string. The text on either side of it frames the matrix, which goes
    out a block of rows at a time.
    """
    entries = report["data"].get("entries")
    if not isinstance(entries, np.ndarray):
        write(json.dumps(report, indent=2) + "\n")
        return
    envelope = dict(report, data=dict(report["data"], entries="\0"))
    head, _, tail = json.dumps(envelope, indent=2).partition('"\\u0000"')
    pair = "        [\n          %s,\n          %s\n        ]"
    row = "      [\n" + ",\n".join([pair] * entries.shape[1]) + "\n      ]"
    templates = {}
    write(head + "[\n")
    separator = ""
    for count, strings in _row_blocks(entries):
        if count not in templates:
            templates[count] = ",\n".join([row] * count)
        write(separator)
        write(templates[count] % strings)
        separator = ",\n"
    write("\n    ]" + tail + "\n")


def render_csv(report: dict, header, rows, write) -> None:
    """Write the comment line, header and rows through ``write``.  ``rows``
    is a sequence of tuples or a complex matrix written one entry a row, a
    block of rows at a time."""
    write(f"# focklab {report['version']} "
          f"config_sha256={report['config_sha256']}\n" + ",".join(header)
          + "\n")
    if not isinstance(rows, np.ndarray):
        write("".join(",".join(repr(v) if isinstance(v, float) else str(v)
                               for v in row) + "\n" for row in rows))
        return
    # row m's template is m + ",n,%s,%s\n" for each column n, joined by m
    columns = [f",{n},%s,%s\n" for n in range(rows.shape[1])]
    m = 0
    for count, strings in _row_blocks(rows):
        write("".join(str(i).join([""] + columns)
                      for i in range(m, m + count)) % strings)
        m += count


# ---------------------------------------------------------------------------
# subcommand runners; each returns (data, (csv_header, csv_rows), checks)

def _records_table(records: list[dict]):
    """CSV header and rows of a list of records sharing their keys."""
    return tuple(records[0]), [tuple(r.values()) for r in records]


def run_berezin(config: RunConfig, seed):
    mu = config.require_measure()
    params = config.params()
    # the L^1 norm sizes its grid first, so a config whose grid is over the
    # budget is refused before any transform is taken
    l1 = berezin_lr_norm(mu, 1.0, params)
    reach = support_radius_of(mu) + 2.0 / math.sqrt(config.alpha)
    sample_z = np.linspace(0.0, reach, 9)
    values = berezin_measure(mu, sample_z.astype(complex), params)
    tv = total_variation(mu)
    data = {
        "samples": [{"z_re": float(z), "z_im": 0.0,
                     "re": float(v.real), "im": float(v.imag)}
                    for z, v in zip(sample_z, values)],
        "l1_norm": float(l1),
        "total_variation": float(tv),
    }
    checks = []
    if is_positive(mu):
        residual = abs(l1 - tv) / max(1.0, tv)
        checks.append(_bounded(config, "mass_identity", residual))
    return data, _records_table(data["samples"]), checks


def _matrix_report(op):
    """Data block holding the frozen entries, and the CSV table: the same
    matrix, one entry a row."""
    entries = op.entries
    tr = np.trace(entries)
    data = {
        "truncation": int(op.truncation),
        "trace_re": float(tr.real),
        "trace_im": float(tr.imag),
        "entries": entries,
    }
    return data, (("m", "n", "re", "im"), entries)


def run_toeplitz(config: RunConfig, seed):
    op = build_from_measure(config.require_measure(), config.truncation,
                            config.params())
    data, table = _matrix_report(op)
    data["provenance"] = op.provenance
    return data, table, []


def run_hankel(config: RunConfig, seed):
    mat = build_hankel(config.require_measure(), config.truncation,
                       config.params())
    data, table = _matrix_report(mat)
    return data, table, []


def run_trace_check(config: RunConfig, seed):
    mu = config.require_measure()
    params = config.params()
    op = build_from_measure(mu, config.truncation, params)
    tr = trace(op)
    expected = (config.alpha / math.pi) * total_mass(mu)
    via_transform = trace_via_berezin(op)
    mass_residual = abs(tr - expected)
    transform_residual = abs(tr - via_transform) / (1.0 + abs(tr))
    data = {
        "trace_re": float(tr.real), "trace_im": float(tr.imag),
        "expected_re": float(expected.real),
        "expected_im": float(expected.imag),
        "transform_trace_re": float(via_transform.real),
        "transform_trace_im": float(via_transform.imag),
        "mass_residual": float(mass_residual),
        "transform_residual": float(transform_residual),
    }
    checks = [_bounded(config, "trace", mass_residual),
              _bounded(config, "trace_transform", transform_residual)]
    return data, (("name", "value"), list(data.items())), checks


def run_schatten(config: RunConfig, seed):
    op = build_from_measure(config.require_measure(), config.truncation,
                            config.params())
    sigma = singular_values(op)
    s1, s1_adjoint = adjoint_isometry_check(op, sigma)
    l1 = transform_l1_norm(op)
    data = {
        "schatten_1": float(s1),
        "schatten_2": float(schatten_norm(sigma, 2.0)),
        "operator_norm": float(schatten_norm(sigma, math.inf)),
        "adjoint_schatten_1": float(s1_adjoint),
        "transform_l1": float(l1),
        "singular_values": [float(v) for v in sigma],
    }
    checks = [
        _bounded(config, "adjoint_isometry",
                 abs(s1 - s1_adjoint) / (1.0 + s1)),
        _bounded(config, "transform_bound", l1 - s1),
    ]
    rows = [(n, float(v)) for n, v in enumerate(sigma)]
    return data, (("n", "sigma"), rows), checks


def run_lattice_approx(config: RunConfig, seed):
    mu = config.require_measure()
    rows = convergence_study(mu, config.r_values, config.truncation,
                             config.params())
    ceiling = (config.alpha / math.pi) * total_variation(mu)
    data = {"rows": rows, "nuclear_ceiling": float(ceiling)}
    worst_excess = max(row["nuclear_bound"] - ceiling for row in rows)
    worst_rise = max((b["s1_error"] - a["s1_error"]
                      for a, b in zip(rows, rows[1:])), default=0.0)
    checks = [_bounded(config, "nuclear_ceiling", worst_excess),
              _bounded(config, "error_decrease", worst_rise)]
    return data, _records_table(rows), checks


def run_rigidity(config: RunConfig, seed):
    mu = config.require_measure()
    p, q = config.exponents
    slack = config.tolerance("rigidity_slack")
    # the experiment's convention wants q <= p; the bracket itself is
    # exponent independent, so ordering the pair loses nothing
    row = rigidity_experiment(mu, max(p, q), min(p, q), config.params())
    lower, upper = row["lower"], row["upper"]
    within = upper <= lower * (1.0 + slack) + 1e-12
    data = {"lower": lower, "upper": upper, "slack": float(slack),
            "within_slack": within, "rows": [row]}
    width = (upper - lower) / lower if lower > 0.0 else 0.0
    checks = [_check("rigidity_slack", width, slack, within)]
    return data, _records_table(data["rows"]), checks


def run_trace_pairing(config: RunConfig, seed):
    mu = config.require_measure()
    params = config.params()
    op = identity_operator(config.truncation, params)
    matrix_side, quadrature_side = trace_pairing(mu, op)
    residual = abs(matrix_side - quadrature_side) / (1.0 + abs(matrix_side))
    data = {
        "matrix_re": float(matrix_side.real),
        "matrix_im": float(matrix_side.imag),
        "quadrature_re": float(quadrature_side.real),
        "quadrature_im": float(quadrature_side.imag),
        "residual": float(residual),
    }
    checks = [_bounded(config, "pairing", residual)]
    return data, (("name", "value"), list(data.items())), checks


def run_counterexample(config: RunConfig, seed):
    p, q = config.exponents
    try:
        params = CounterexampleParams(p=p, q=q, alpha=config.alpha)
    except ValueError as exc:
        raise ConfigError(f"exponents: {exc}")
    data = full_report(params)
    series = ("membership_f_terms", "membership_g_terms")
    for key in series:
        # a zero or subnormal term has lost the digits its ratio needs, and
        # two underflowed terms say nothing of whether the series grows
        tiny = [i for i, t in enumerate(data[key]) if t < sys.float_info.min]
        if tiny:
            raise FocklabError(f"data.{key}[{tiny[0]}]: under the normal "
                               "float range, so the term ratios are lost")
    worst = max(b / a for key in series
                for a, b in zip(data[key], data[key][1:]))
    floor = params.b ** 2 / 3.0
    slowest = min(data["divergence_ratios"])
    checks = [_bounded(config, "pairing_identity",
                       max(data["pairing_identity_residuals"])),
              _check("membership_convergent", worst, 1.0, worst < 1.0),
              _check("divergence_floor", slowest, floor, slowest >= floor)]
    header = ("k", "index", "membership_f", "membership_g",
              "divergence_partial", "pairing_residual", "growth_ratio")
    rows = zip(range(1, params.terms + 1), data["indices"],
               data["membership_f_terms"], data["membership_g_terms"],
               data["divergence_partial_sums"],
               data["pairing_identity_residuals"], data["growth_ratios"])
    return data, (header, list(rows)), checks


def run_kernel_continuity(config: RunConfig, seed):
    p = config.exponents[0]
    rng = random.Random(0 if seed is None else seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    z0 = complex(math.cos(angle), math.sin(angle)) / math.sqrt(config.alpha)
    deltas = config.r_values
    distances = kernel_continuity_probe(z0, deltas, p, config.params())
    scale = math.sqrt(config.alpha)
    data = {
        "z0_re": float(z0.real), "z0_im": float(z0.imag),
        "p": float(p),
        "offsets": [float(d) for d in deltas],
        "distances": [float(d) for d in distances],
    }
    worst_rate = max(d / (scale * off) for d, off in zip(distances, deltas))
    # offsets shrink along the list, so each distance should undershoot the
    # previous one; a positive difference is a monotonicity violation
    worst_rise = max((b - a for a, b in zip(distances, distances[1:])),
                     default=0.0)
    checks = [_bounded(config, "continuity", worst_rate),
              _bounded(config, "continuity_monotone", worst_rise)]
    rows = list(zip(data["offsets"], data["distances"]))
    return data, (("offset", "distance"), rows), checks


SUBCOMMANDS = {
    "berezin": run_berezin,
    "toeplitz": run_toeplitz,
    "hankel": run_hankel,
    "trace-check": run_trace_check,
    "schatten": run_schatten,
    "lattice-approx": run_lattice_approx,
    "rigidity": run_rigidity,
    "trace-pairing": run_trace_pairing,
    "counterexample": run_counterexample,
    "kernel-continuity": run_kernel_continuity,
}


def _nonfinite_path(value):
    """Path below ``value`` of its first NaN or infinite float, else None.

    A complex matrix is searched as its [[[re, im]]] nesting.
    """
    if isinstance(value, float):
        return None if math.isfinite(value) else ""
    if isinstance(value, np.ndarray):
        floats = value.view(float).reshape(value.shape + (2,))
        bad = np.flatnonzero(~np.isfinite(floats))
        if not bad.size:
            return None
        return "".join(f"[{i}]"
                       for i in np.unravel_index(bad[0], floats.shape))
    if isinstance(value, dict):
        keyed = value.items()
    elif isinstance(value, (list, tuple)):
        keyed = enumerate(value)
    else:
        return None
    for key, child in keyed:
        found = _nonfinite_path(child)
        if found is not None:
            return (f"[{key}]" if isinstance(key, int) else f".{key}") + found
    return None


def run_subcommand(name: str, config: RunConfig, seed=None) -> tuple[dict,
                                                                     tuple]:
    """Run one subcommand; returns (report dict, (csv header, csv rows)).

    NonFiniteError when a reported float is NaN or infinite, which JSON
    cannot hold.
    """
    # an overflow is refused below by the field it reaches, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        data, table, checks = SUBCOMMANDS[name](config, seed)
    for part, value in (("data", data), ("checks", checks)):
        path = _nonfinite_path(value)
        if path is not None:
            raise NonFiniteError(f"{part}{path}: not a finite float")
    report = {
        "subcommand": name,
        "version": __version__,
        "config_sha256": config.digest(),
        "seed": seed,
        "data": data,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    return report, table


def _write_report(config: RunConfig, report: dict, table: tuple, write):
    if config.output_format == "csv":
        render_csv(report, *table, write)
    else:
        render_json(report, write)


def _emit_report(config: RunConfig, report: dict, table: tuple):
    """Write the report to stdout and, when output.path is set, to that
    file first: a file that cannot be written leaves stdout empty.

    A regular file's text is then copied to stdout; anything else (such as
    /dev/null) cannot be read back, and stdout gets the report rendered.
    """
    saved = None
    if config.output_path:
        import os
        try:
            with open(config.output_path, "w", encoding="utf-8") as f:
                _write_report(config, report, table, f.write)
            if os.path.isfile(config.output_path):
                # newline="": the text is read back as it was written
                saved = open(config.output_path, encoding="utf-8",
                             newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}")
    if saved is None:
        _write_report(config, report, table, sys.stdout.write)
        return
    import shutil
    with saved:
        shutil.copyfileobj(saved, sys.stdout)


def _read_config(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Toeplitz and Hankel operator experiments on Fock spaces")
    parser.add_argument("cmd", choices=SUBCOMMANDS, help="report to run")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", help="write the report here")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="overrides output.format")
    parser.add_argument("--truncation", type=int,
                        help="overrides config truncation")
    parser.add_argument("--seed", type=int,
                        help="seed for randomized probes")
    args = parser.parse_args(argv)

    try:
        config = parse_config(_read_config(args.config) if args.config
                               else "{}")
        if args.truncation is not None:
            config.truncation = _truncation(args.truncation, "truncation")
        if args.format is not None:
            config.output_format = args.format
        if args.out is not None:
            config.output_path = args.out
        report, table = run_subcommand(args.cmd, config, args.seed)
        _emit_report(config, report, table)
    except FocklabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if not report["passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"tolerance failure: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
