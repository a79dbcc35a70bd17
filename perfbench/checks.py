"""Checks of each report against values the benchmark derives itself.

The program's own verdict (exit code, ``"passed"``) is required but not
trusted alone: Toeplitz and trace-check traces are compared with the closed
form (alpha/pi) mu(C) computed from the config.  Hankel matrices must be
exactly symmetric, their (0, 0) entry must equal the closed form
(alpha/pi) int e^{-alpha |z|^2} dmu, and for a radial symbol every other
entry must vanish, since z^{m+n} averages to zero over each circle.
Lattice-approx errors must lie under the O(r) bound of ``lattice_bound``
and the cell masses must add up to the measure's mass.

A report that fails any of these, or whose program verdict is not a pass,
has failed.  Its output is wrong as well unless the benchmark's checks hold
and every check the program failed is one that asserts more than the paper
proves (``OVERSTRICT``): then the numbers are right and only the program's
verdict on them is too strict.
"""

from __future__ import annotations

import json
import math

from corpus import Case

TRACE_TOL = 1e-9  # the CLI's default "trace" tolerance, relative above 1
HANKEL_ZERO_TOL = 1e-12  # radial Hankel entries off (0, 0); seen: < 1e-16
LATTICE_TOL = 1e-9  # relative; cell masses miss mu(C) by < 1e-11 (Gaussians)
DEFAULT_R_VALUES = tuple(2.0 ** -n for n in range(7))

# Program checks that assert more than the paper proves.  The lattice
# approximant converges in trace norm like r, but its error need not fall at
# every halving of r: for a disk of radius 0.78 it rises from r = 1/2 to
# r = 1/4.  The benchmark judges those numbers by lattice_bound instead.
OVERSTRICT = {"lattice-approx": {"error_decrease"}}


def total_mass(measure: dict) -> complex:
    """mu(C) in closed form: a pi / beta, a pi R^2 or the sum of weights."""
    kind = measure["type"]
    if kind == "gaussian":
        return complex(measure.get("amplitude", 1.0) * math.pi
                       / measure["beta"])
    if kind == "uniform_disk":
        return complex(measure.get("amplitude", 1.0) * math.pi
                       * measure["radius"] ** 2)
    return complex(sum(p.get("w_re", 1.0) for p in measure["points"]),
                   sum(p.get("w_im", 0.0) for p in measure["points"]))


def expected_trace(case: Case) -> complex:
    alpha = case.config.get("alpha", 1.0)
    return alpha / math.pi * total_mass(case.config["measure"])


def hankel_corner(case: Case) -> complex:
    """(alpha/pi) int e^{-alpha |z|^2} dmu, the Hankel entry (0, 0)."""
    alpha = case.config.get("alpha", 1.0)
    measure = case.config["measure"]
    kind = measure["type"]
    amplitude = measure.get("amplitude", 1.0)
    if kind == "gaussian":
        beta = measure["beta"]
        shift = measure.get("x", 0.0) ** 2 + measure.get("y", 0.0) ** 2
        return complex(amplitude * alpha / (alpha + beta)
                       * math.exp(-alpha * beta * shift / (alpha + beta)))
    if kind == "uniform_disk":
        return complex(amplitude
                       * -math.expm1(-alpha * measure["radius"] ** 2))
    return alpha / math.pi * sum(
        complex(p.get("w_re", 1.0), p.get("w_im", 0.0))
        * math.exp(-alpha * (p["x"] ** 2 + p["y"] ** 2))
        for p in measure["points"])


def is_radial(measure: dict) -> bool:
    return (measure["type"] == "uniform_disk"
            or (measure["type"] == "gaussian"
                and measure.get("x", 0.0) == measure.get("y", 0.0) == 0.0))


def _hankel_gap(entries, case: Case) -> str | None:
    if any(entries[(m, n)] != entries[(n, m)] for m, n in entries):
        return "hankel matrix is not symmetric"
    corner, expected = complex(*entries[(0, 0)]), hankel_corner(case)
    if abs(corner - expected) > TRACE_TOL * max(1.0, abs(expected)):
        return (f"hankel (0, 0) entry {corner} differs from "
                f"(alpha/pi) int e^(-alpha|z|^2) dmu = {expected}")
    if is_radial(case.config["measure"]):
        worst = max((abs(complex(*value)) for key, value in entries.items()
                     if key != (0, 0)), default=0.0)
        if worst > HANKEL_ZERO_TOL:
            return f"radial hankel entry of modulus {worst} off (0, 0)"
    return None


def _csv_matrix(text: str) -> dict[tuple[int, int], tuple[float, float]]:
    lines = text.splitlines()
    if lines[1] != "m,n,re,im":
        raise ValueError(f"unexpected CSV header {lines[1]!r}")
    entries = {}
    for line in lines[2:]:
        m, n, re, im = line.split(",")
        entries[(int(m), int(n))] = (float(re), float(im))
    return entries


def _json_matrix(report: dict) -> dict[tuple[int, int], tuple[float, float]]:
    return {(m, n): tuple(value)
            for m, row in enumerate(report["data"]["entries"])
            for n, value in enumerate(row)}


def _trace_gap(trace: complex, case: Case) -> str | None:
    expected = expected_trace(case)
    if abs(trace - expected) > TRACE_TOL * max(1.0, abs(expected)):
        return f"trace {trace} differs from (alpha/pi) mu(C) = {expected}"
    return None


def _cell_offset(x: float, r: float) -> float:
    """Distance from x to the nearest cell centre of the lattice of side r."""
    return abs(x - math.floor(x / r + 0.5) * r)


def lattice_bound(measure: dict, alpha: float, r: float) -> float:
    """Upper bound on the trace-norm error of the lattice approximant.

    Moving mass w from z to its cell centre c changes the operator by
    (alpha/pi) w (P_c - P_z), with P the projection on the normalized
    kernel; its trace norm is 2 sqrt(1 - e^{-alpha |z - c|^2}), and
    truncation does not raise it.  Point masses use their own offsets,
    densities the largest one, r / sqrt(2).
    """
    def moved(w: float, d2: float) -> float:
        return w * 2.0 * math.sqrt(-math.expm1(-alpha * d2))

    if measure["type"] == "point_masses":
        total = math.fsum(
            moved(abs(complex(p.get("w_re", 1.0), p.get("w_im", 0.0))),
                  _cell_offset(p["x"], r) ** 2 + _cell_offset(p["y"], r) ** 2)
            for p in measure["points"])
    else:
        total = moved(abs(total_mass(measure)), 0.5 * r * r)
    return alpha / math.pi * total


def _lattice_gap(report: dict, case: Case) -> str | None:
    alpha = case.config.get("alpha", 1.0)
    measure = case.config["measure"]
    data = report["data"]
    ceiling = alpha / math.pi * abs(total_mass(measure))
    slack = LATTICE_TOL * max(1.0, ceiling)
    r_values = tuple(case.config.get("r_values") or DEFAULT_R_VALUES)
    if tuple(row["r"] for row in data["rows"]) != r_values:
        return f"lattice rows are not r = {r_values}"
    if abs(data["nuclear_ceiling"] - ceiling) > slack:
        return (f"nuclear ceiling {data['nuclear_ceiling']} differs from "
                f"(alpha/pi) |mu|(C) = {ceiling}")
    for row in data["rows"]:
        r, s1, op = row["r"], row["s1_error"], row["op_error"]
        if abs(row["nuclear_bound"] - ceiling) > slack:
            return (f"cell masses at r = {r} give {row['nuclear_bound']}, "
                    f"not (alpha/pi) mu(C) = {ceiling}")
        if not 0.0 <= op <= s1:
            return f"at r = {r}: operator error {op}, trace-norm error {s1}"
        bound = lattice_bound(measure, alpha, r)
        if s1 > bound + slack:
            return f"at r = {r}: trace-norm error {s1} above its bound {bound}"
    return None


def _overstrict_only(case: Case, report: dict | None) -> bool:
    """Whether every check the program failed is in OVERSTRICT."""
    if report is None:
        return False
    failed = {c["name"] for c in report["checks"] if c["passed"] is not True}
    return bool(failed) and failed <= OVERSTRICT.get(case.subcommand, set())


def check_report(case: Case, code: int, text: str) -> tuple[str | None, bool]:
    """(why the report failed, or None; whether its output is wrong)."""
    verdict = f"exit code {code}" if code != 0 else None
    if code not in (0, 1):  # a config error, a crash or a kill: no report
        return verdict, True
    try:
        report = json.loads(text) if case.output_format == "json" else None
        if verdict is None and report is not None \
                and report["passed"] is not True:
            verdict = "report says passed: false"
        gap = _numbers_gap(case, report, text)
        if gap is not None:
            return gap, True
        if verdict is None:
            return None, False
        if report is not None and report["passed"] is not False:
            return f"{verdict}, but passed is {report['passed']!r}", True
        return verdict, not _overstrict_only(case, report)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed report: {exc!r}", True


def _numbers_gap(case: Case, report: dict | None, text: str) -> str | None:
    """Why the report's numbers are wrong, or None when the checks hold."""
    if case.subcommand in ("toeplitz", "hankel"):
        entries = (_json_matrix(report) if report is not None
                   else _csv_matrix(text))
        size = case.truncation
        if len(entries) != size * size:
            return f"{len(entries)} entries, expected {size * size}"
    if case.subcommand == "toeplitz":
        trace = complex(math.fsum(entries[(n, n)][0] for n in range(size)),
                        math.fsum(entries[(n, n)][1] for n in range(size)))
        return _trace_gap(trace, case)
    if case.subcommand == "hankel":
        return _hankel_gap(entries, case)
    if report is None:
        return None
    if case.subcommand == "trace-check":
        data = report["data"]
        return _trace_gap(complex(data["trace_re"], data["trace_im"]), case)
    if case.subcommand == "lattice-approx":
        return _lattice_gap(report, case)
    return None
