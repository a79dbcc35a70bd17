import json
import math

import pytest

from checks import check_report, expected_trace, lattice_bound, total_mass
from corpus import Case


def _case(sub, measure, fmt="json", truncation=8, alpha=1.0):
    return Case("000-" + sub, sub, {"alpha": alpha, "truncation": truncation,
                                    "measure": measure,
                                    "output": {"format": fmt}})


def _run(case, tmp_path):
    from focklab.cli import main

    path = tmp_path / "c.json"
    path.write_text(case.text)
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([case.subcommand, "--config", str(path)])
    return code, out.getvalue()


POINTS = {"type": "point_masses",
          "points": [{"x": 0.5, "y": -0.25, "w_re": 0.75},
                     {"x": -0.3, "y": 0.1, "w_re": 1.25, "w_im": 0.5}]}


def test_closed_form_masses():
    assert total_mass({"type": "gaussian", "beta": 2.0, "amplitude": 3.0}) \
        == pytest.approx(1.5 * math.pi)
    assert total_mass({"type": "uniform_disk", "radius": 2.0}) \
        == pytest.approx(4.0 * math.pi)
    assert total_mass(POINTS) == 2.0 + 0.5j
    assert expected_trace(_case("toeplitz", POINTS, alpha=2.0)) \
        == pytest.approx(2.0 / math.pi * (2.0 + 0.5j))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("sub", ["toeplitz", "hankel"])
def test_program_reports_pass(sub, fmt, tmp_path):
    case = _case(sub, POINTS, fmt)
    code, text = _run(case, tmp_path)
    assert check_report(case, code, text) == (None, False)


def test_wrong_trace_is_caught(tmp_path):
    case = _case("toeplitz", POINTS, "csv")
    code, text = _run(case, tmp_path)
    lines = text.splitlines()
    m, n, re, im = lines[2].split(",")
    lines[2] = ",".join([m, n, repr(float(re) + 1e-6), im])
    reason, wrong = check_report(case, code, "\n".join(lines) + "\n")
    assert "trace" in reason and wrong


def test_asymmetric_hankel_is_caught(tmp_path):
    case = _case("hankel", POINTS)
    code, text = _run(case, tmp_path)
    report = json.loads(text)
    report["data"]["entries"][0][1][0] += 1e-12
    assert "symmetric" in check_report(case, code, json.dumps(report))[0]


DISK = {"type": "uniform_disk", "radius": 1.2, "amplitude": 0.75}
OFF_CENTRE = {"type": "gaussian", "beta": 1.5, "amplitude": 2.0,
              "x": 0.4, "y": -0.3}


@pytest.mark.parametrize("measure", [POINTS, DISK, OFF_CENTRE])
def test_hankel_corner_closed_form_holds(measure, tmp_path):
    case = _case("hankel", measure, "csv")
    code, text = _run(case, tmp_path)
    assert check_report(case, code, text) == (None, False)


def test_wrong_hankel_corner_is_caught(tmp_path):
    case = _case("hankel", OFF_CENTRE)
    code, text = _run(case, tmp_path)
    report = json.loads(text)
    report["data"]["entries"][0][0][0] *= 1.0 + 1e-6
    assert "(0, 0)" in check_report(case, code, json.dumps(report))[0]


def test_radial_hankel_must_vanish_off_the_corner(tmp_path):
    case = _case("hankel", DISK)
    code, text = _run(case, tmp_path)
    report = json.loads(text)
    for m, n in ((1, 3), (3, 1)):
        report["data"]["entries"][m][n][1] += 1e-9
    assert "radial" in check_report(case, code, json.dumps(report))[0]
    off = _case("hankel", OFF_CENTRE)
    assert check_report(off, *_run(off, tmp_path)) == (None, False)


def test_program_verdict_is_required(tmp_path):
    case = _case("trace-check", POINTS)
    code, text = _run(case, tmp_path)
    assert check_report(case, code, text) == (None, False)
    report = json.loads(text)
    report["passed"] = False
    assert check_report(case, code, json.dumps(report)) \
        == ("report says passed: false", True)
    assert check_report(case, 1, json.dumps(report)) \
        == ("exit code 1", True)
    assert check_report(case, 1, text) \
        == ("exit code 1, but passed is True", True)
    assert check_report(case, 2, "") == ("exit code 2", True)
    reason, wrong = check_report(case, 0, "")
    assert "malformed" in reason and wrong


# A disk on which the lattice error rises from r = 1/2 to r = 1/4, so the
# program fails its error_decrease check although the numbers are right.
RISING_DISK = {"type": "uniform_disk", "radius": 0.783839,
               "amplitude": 1.885106}


def test_overstrict_program_check_fails_without_being_wrong(tmp_path):
    case = _case("lattice-approx", RISING_DISK, truncation=64)
    code, text = _run(case, tmp_path)
    report = json.loads(text)
    assert code == 1
    assert [c["name"] for c in report["checks"] if not c["passed"]] \
        == ["error_decrease"]
    assert check_report(case, code, text) == ("exit code 1", False)


def test_other_program_check_failures_are_wrong(tmp_path):
    case = _case("lattice-approx", RISING_DISK, truncation=64)
    code, text = _run(case, tmp_path)
    report = json.loads(text)
    report["checks"][0]["passed"] = False  # nuclear_ceiling
    assert check_report(case, code, json.dumps(report)) \
        == ("exit code 1", True)


@pytest.mark.parametrize("measure", [POINTS, DISK, OFF_CENTRE])
def test_lattice_approx_numbers_pass(measure, tmp_path):
    measure = dict(measure)
    if measure["type"] == "point_masses":  # the study needs mu >= 0
        measure["points"] = [dict(p, w_im=0.0) for p in measure["points"]]
    case = _case("lattice-approx", measure, truncation=16)
    code, text = _run(case, tmp_path)
    assert code == 0
    assert check_report(case, code, text) == (None, False)


@pytest.mark.parametrize("field, value, words", [
    ("s1_error", lattice_bound(DISK, 1.0, 2.0 ** -6) * 1.001,
     "above its bound"),
    ("op_error", 1.0, "operator error"),
    ("nuclear_bound", 0.75 * 1.44 * (1.0 + 1e-6), "cell masses"),
])
def test_wrong_lattice_numbers_are_caught(field, value, words, tmp_path):
    case = _case("lattice-approx", DISK, truncation=16)
    code, text = _run(case, tmp_path)
    report = json.loads(text)
    report["data"]["rows"][-1][field] = value
    reason, wrong = check_report(case, code, json.dumps(report))
    assert words in reason and wrong


def test_lattice_bound_uses_each_point_offset():
    one = {"type": "point_masses", "points": [{"x": 0.3, "y": 0.0}]}
    # r = 1 moves the point by 0.3, r = 1/2 by 0.2, r = 1/4 by 0.05
    for r, d in ((1.0, 0.3), (0.5, 0.2), (0.25, 0.05)):
        assert lattice_bound(one, 1.0, r) == pytest.approx(
            2.0 / math.pi * math.sqrt(1.0 - math.exp(-d * d)))
    assert lattice_bound(DISK, 2.0, 0.5) == pytest.approx(
        2.0 / math.pi * abs(total_mass(DISK))
        * 2.0 * math.sqrt(1.0 - math.exp(-2.0 * 0.125)))
