"""Command-line behavior: config validation, determinism, exit codes."""

import errno
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focklab import cli
from focklab.cli import (TRUNCATION_BUDGET, build_measure, main, parse_config,
                         render_csv, render_json)
from focklab.errors import ConfigError, FocklabError, ResourceError
from focklab.fock import FockParams
from focklab.measure import (Density, GaussianDensity, PointMasses,
                             UniformDisk, berezin_measure)
from focklab.toeplitz import (TruncatedOperator, build_from_measure,
                              build_hankel)


MINIMAL = ('{"alpha": 1, "measure": {"type": "point_masses", '
           '"points": [{"x": 0, "y": 0, "w_re": 1, "w_im": 0}]}}')

GAUSS = '{"alpha": 1.0, "measure": {"type": "gaussian", "beta": 1.0}}'


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _refuse_constant(name):
    raise AssertionError(f"report holds {name}, which is not valid JSON")


def parse_report(text):
    """Parse a CLI report, refusing the NaN and Infinity that json.loads
    would otherwise accept."""
    return json.loads(text, parse_constant=_refuse_constant)


def assert_exit_two(capsys, argv, prefix):
    """The run exits 2, writes nothing on stdout and names its error."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix), captured.err


# malformed configs with their full messages, as the parser gave them
# before it read objects from field tables; only a point entry missing x
# or y reads differently (it said "measure.points[0]: needs x and y")
MALFORMED = [
    ("[]", "expected an object"),
    ("nope", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{"alpha": null}', "alpha: expected a number"),
    ('{"alpha": 1e400}', "alpha: must be finite"),
    ('{"truncation": 8.5}', "truncation: expected an integer"),
    ('{"measure": []}', "measure: expected an object"),
    ('{"measure": {"type": ["x"]}}',
     "measure.type: expected one of point_masses, uniform_disk, gaussian"),
    ('{"measure": {"type": "point_masses"}}',
     "measure.points: expected a list"),
    ('{"measure": {"type": "point_masses", "points": [3]}}',
     "measure.points[0]: expected an object"),
    ('{"measure": {"type": "point_masses", "points": [{"y": 1}]}}',
     "measure.points[0].x: required"),
    ('{"measure": {"type": "point_masses", "points": [{"x": 1}]}}',
     "measure.points[0].y: required"),
    ('{"measure": {"type": "point_masses", '
     '"points": [{"x": 0, "y": 0, "w_im": null}]}}',
     "measure.points[0].w_im: expected a number"),
    ('{"measure": {"type": "uniform_disk"}}', "measure.radius: required"),
    ('{"measure": {"type": "uniform_disk", "radius": -1, "amplitude": "a"}}',
     "measure.radius: must be positive"),
    ('{"measure": {"type": "uniform_disk", "radius": 0, "bogus": 1}}',
     "measure.bogus: unknown key"),
    ('{"measure": {"type": "gaussian", "amplitude": "a"}}',
     "measure.beta: required"),
    ('{"measure": {"type": "gaussian", "beta": -1, "amplitude": "a"}}',
     "measure.amplitude: expected a number"),
    ('{"exponents": {"p": 0.5, "q": "a"}}', "exponents.q: expected a number"),
    ('{"exponents": {"q": 0.5, "p": 0.9}}', "exponents.p: must be at least 1"),
    ('{"r_values": [0.5, -1]}', "r_values[1]: must be positive"),
    ('{"tolerances": {"trace": "x"}}', "tolerances.trace: expected a number"),
    ('{"output": {"format": ["json"]}}', "output.format: expected json or csv"),
    ('{"output": {"path": 3}}', "output.path: expected a string"),
]

KINDS = ["point_masses", "uniform_disk", "gaussian"]
SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
           | st.floats() | st.text(max_size=6)
           | st.sampled_from(KINDS + ["json", "csv", "trace"]))
JSON_VALUES = st.recursive(SCALARS, lambda children: (
    st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=10)


def _shaped(keys, values):
    """Objects holding some of the given keys, each with a value drawn from
    values or, less often, any JSON value."""
    return st.fixed_dictionaries({}, optional={key: values | JSON_VALUES
                                               for key in keys})


NUMBERS = st.floats(-3.0, 3.0) | st.integers(0, 5000)
POINTS = st.lists(_shaped(["x", "y", "w_re", "w_im"], NUMBERS), max_size=3)
MEASURES = _shaped(["type", "points", "radius", "amplitude", "beta", "x",
                    "y"], st.sampled_from(KINDS) | POINTS | NUMBERS)
CONFIGS = st.fixed_dictionaries({}, optional={
    "alpha": NUMBERS | JSON_VALUES,
    "truncation": NUMBERS | JSON_VALUES,
    "measure": MEASURES | JSON_VALUES,
    "exponents": _shaped(["p", "q"], NUMBERS) | JSON_VALUES,
    "r_values": st.lists(NUMBERS, max_size=3) | JSON_VALUES,
    "tolerances": _shaped(["trace", "pairing"], NUMBERS) | JSON_VALUES,
    "output": _shaped(["format", "path"], st.sampled_from(["json", "csv"]))
    | JSON_VALUES})


class TestParseConfig:

    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_malformed_message(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None)
    @given(CONFIGS | JSON_VALUES)
    @example({"measure": {"type": ["x"]}})
    @example({"measure": {"type": "point_masses", "points": [{"x": {}}]}})
    def test_any_json_parses_or_is_refused(self, value):
        try:
            config = parse_config(json.dumps(value))
        except ConfigError:
            return
        except ResourceError as exc:
            assert value["truncation"] > TRUNCATION_BUDGET
            assert str(exc).startswith("truncation ")
            return
        assert isinstance(config, cli.RunConfig)

    def test_truncation_budget(self):
        assert parse_config('{"truncation": 4096}').truncation == 4096
        with pytest.raises(ResourceError, match="^truncation 4097 "):
            parse_config('{"truncation": 4097}')

    def test_minimal_fills_defaults(self):
        config = parse_config(MINIMAL)
        assert config.alpha == 1.0
        assert config.truncation == 64
        assert config.exponents == (4.0 / 3.0, 4.0)
        assert config.r_values == tuple(2.0 ** -n for n in range(7))
        assert config.output_format == "json"
        assert config.output_path is None

    def test_unknown_top_key_named(self):
        with pytest.raises(ConfigError, match="alpah"):
            parse_config('{"alpah": 1}')

    def test_unknown_nested_key_dotted_path(self):
        with pytest.raises(ConfigError, match=r"exponents\.r\b"):
            parse_config('{"exponents": {"p": 1.5, "r": 2}}')

    def test_unknown_point_key(self):
        with pytest.raises(ConfigError, match=r"measure\.points\[0\]\.z"):
            parse_config('{"measure": {"type": "point_masses", '
                         '"points": [{"z": 1}]}}')

    def test_negative_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config('{"alpha": -1}')

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config('{"alpha": true}')

    def test_small_truncation_rejected(self):
        with pytest.raises(ConfigError, match="truncation"):
            parse_config('{"truncation": 4}')

    def test_unknown_tolerance_name(self):
        with pytest.raises(ConfigError, match=r"tolerances\.trce"):
            parse_config('{"tolerances": {"trce": 1e-9}}')

    def test_nonpositive_tolerance(self):
        with pytest.raises(ConfigError, match=r"tolerances\.trace"):
            parse_config('{"tolerances": {"trace": 0}}')

    def test_r_values_must_decrease(self):
        with pytest.raises(ConfigError, match="r_values"):
            parse_config('{"r_values": [0.5, 0.5]}')

    def test_bad_output_format(self):
        with pytest.raises(ConfigError, match=r"output\.format"):
            parse_config('{"output": {"format": "yaml"}}')

    def test_measure_objects(self):
        pm = build_measure(parse_config(MINIMAL).measure)
        assert isinstance(pm, PointMasses)
        disk = build_measure(parse_config(
            '{"measure": {"type": "uniform_disk", "radius": 2}}').measure)
        assert type(disk) is UniformDisk
        assert (disk.amplitude, disk.radius) == (1.0, 2.0)
        gauss = build_measure(parse_config(GAUSS).measure)
        assert isinstance(gauss, GaussianDensity)

    def test_digest_ignores_key_order(self):
        a = parse_config('{"alpha": 2.0, "truncation": 32, "measure": null}')
        b = parse_config('{"truncation": 32, "measure": null, "alpha": 2.0}')
        assert a.digest() == b.digest()

    def test_digest_sees_value_changes(self):
        a = parse_config('{"alpha": 2.0}')
        b = parse_config('{"alpha": 2.5}')
        assert a.digest() != b.digest()


class TestDeterminism:

    def test_identical_config_identical_bytes(self, tmp_path, capsys):
        config = write(tmp_path, "g.json", GAUSS)
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        assert main(["trace-check", "--config", config, "--out", out_a]) == 0
        assert main(["trace-check", "--config", config, "--out", out_b]) == 0
        capsys.readouterr()
        bytes_a = (tmp_path / "a.json").read_bytes()
        assert bytes_a == (tmp_path / "b.json").read_bytes()
        report = parse_report(bytes_a)
        assert report["version"]
        assert len(report["config_sha256"]) == 64
        assert "timestamp" not in report

    def test_stdout_matches_file(self, tmp_path, capsys):
        config = write(tmp_path, "g.json", GAUSS)
        out = str(tmp_path / "r.json")
        main(["trace-check", "--config", config, "--out", out])
        captured = capsys.readouterr().out
        assert captured == (tmp_path / "r.json").read_text(encoding="utf-8")


class TestExitCodes:

    def test_pass_is_zero(self, tmp_path, capsys):
        config = write(tmp_path, "g.json", GAUSS)
        assert main(["trace-check", "--config", config]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["data"]["mass_residual"] < 1e-9

    def test_tolerance_failure_is_one_and_report_written(self, tmp_path,
                                                         capsys):
        strict = json.loads(GAUSS)
        strict["tolerances"] = {"trace": 1e-30}
        config = write(tmp_path, "strict.json", json.dumps(strict))
        out = str(tmp_path / "r.json")
        assert main(["trace-check", "--config", config, "--out", out]) == 1
        capsys.readouterr()
        report = parse_report((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert report["passed"] is False
        flagged = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in flagged] == ["trace"]
        assert flagged[0]["tolerance"] == 1e-30

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["toeplitz", "--bogus"],
                                      ["toeplitz", "--truncation", "x"]])
    def test_usage_error_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: focklab")

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in cli.SUBCOMMANDS)

    def test_config_error_is_two(self, tmp_path, capsys):
        config = write(tmp_path, "bad.json", '{"alpah": 1}')
        assert main(["trace-check", "--config", config]) == 2
        assert capsys.readouterr().err.startswith("ConfigError: alpah")

    def test_missing_measure_is_two(self, capsys):
        assert main(["berezin"]) == 2
        assert "measure" in capsys.readouterr().err

    def test_point_masses_pairing_is_two(self, tmp_path, capsys):
        config = write(tmp_path, "pm.json", MINIMAL)
        assert main(["trace-pairing", "--config", config]) == 2
        capsys.readouterr()

    def test_bad_counterexample_exponents_is_two(self, tmp_path, capsys):
        config = write(tmp_path, "e.json",
                       '{"exponents": {"p": 4.0, "q": 1.3333333333333333}}')
        assert main(["counterexample", "--config", config]) == 2
        assert "exponents" in capsys.readouterr().err

    @pytest.mark.parametrize("exponents, series", [
        # every g term underflows to 0.0
        ({"p": 1.9, "q": 1e300}, "g"),
        # every f term underflows; the g terms first grow 36.9-fold
        ({"p": 1.0000001, "q": 100}, "f"),
        # every term underflows, though both series first grow
        ({"p": 1.0000001, "q": 1e5}, "f"),
    ])
    def test_underflowing_counterexample_terms(self, tmp_path, capsys,
                                               exponents, series):
        # ended in a ZeroDivisionError traceback: a term ratio over 0.0
        config = write(tmp_path, "e.json",
                       json.dumps({"exponents": exponents}))
        assert_exit_two(capsys, ["counterexample", "--config", config],
                        f"FocklabError: data.membership_{series}_terms[0]: "
                        "under the normal float range")

    def test_truncation_error_named(self, tmp_path, capsys):
        config = write(tmp_path, "far.json",
                       '{"measure": {"type": "gaussian", "beta": 1.0, '
                       '"x": 3.0}}')
        assert main(["trace-pairing", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(
            "TruncationError: kernel basis tail")


class TestFileErrors:
    """Config and report files that cannot be read or written exit 2."""

    def _assert_config_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ConfigError: ")
        assert captured.err.count("\n") == 1

    def test_missing_config(self, tmp_path, capsys):
        self._assert_config_error(
            capsys, ["rigidity", "--config", str(tmp_path / "none.json")])

    def test_config_is_a_directory(self, tmp_path, capsys):
        self._assert_config_error(capsys,
                                  ["rigidity", "--config", str(tmp_path)])

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"alpha": 1, "measure": null, "x": "\u00e9"}'
                         .encode("latin-1"))
        self._assert_config_error(capsys, ["rigidity", "--config", str(path)])

    def test_out_in_missing_directory(self, tmp_path, capsys):
        self._assert_config_error(
            capsys, ["counterexample", "--out",
                     str(tmp_path / "missing" / "report.json")])


class TestKernelGrids:
    """Kernel-norm grids are laid about the kernels, so their cost does not
    grow with alpha for a fixed sqrt(alpha) * offset."""

    @pytest.mark.parametrize("subcommand, config", [
        ("kernel-continuity", {"alpha": 1000}),
        ("rigidity", {"alpha": 256, "measure": {"type": "uniform_disk",
                                                "radius": 1.0}}),
        ("rigidity", {"alpha": 1000, "measure": {
            "type": "point_masses", "points": [{"x": 0, "y": 0},
                                               {"x": 1, "y": 0}]}}),
    ])
    def test_large_alpha_answers(self, tmp_path, capsys, subcommand, config):
        path = write(tmp_path, "large.json", json.dumps(config))
        start = time.monotonic()
        assert main([subcommand, "--config", path]) == 0
        assert time.monotonic() - start < 10.0
        assert parse_report(capsys.readouterr().out)["passed"] is True


class TestCellBudget:
    """Lattice sides too small for the symbol stop before enumerating."""

    @pytest.mark.parametrize("measure, r", [
        ({"type": "uniform_disk", "radius": 1.0}, 1e-300),
        ({"type": "uniform_disk", "radius": 1.0}, 0.001),
        ({"type": "point_masses", "points": [{"x": 0.5, "y": 0.0}]}, 5e-324),
    ])
    def test_resource_error_is_two(self, tmp_path, capsys, measure, r):
        config = write(tmp_path, "lattice.json",
                       json.dumps({"measure": measure, "r_values": [r]}))
        start = time.monotonic()
        assert main(["lattice-approx", "--config", config]) == 2
        assert time.monotonic() - start < 10.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ResourceError: lattice side")

    def test_sides_share_one_budget(self, tmp_path, capsys):
        # each side alone fits the time budget (0.0014 alone took 3.7 s),
        # but the three together ran for about 10 s before they were budgeted
        # as one report
        config = write(tmp_path, "lattice.json", json.dumps({
            "truncation": 64,
            "measure": {"type": "uniform_disk", "radius": 1.0},
            "r_values": [0.0016, 0.0015, 0.0014]}))
        start = time.monotonic()
        assert_exit_two(capsys, ["lattice-approx", "--config", config],
                        "ResourceError: lattice side")
        assert time.monotonic() - start < 1.0

    def test_widest_documented_gaussian_fits(self, tmp_path, capsys):
        # beta = 0.6 visits about 1.14e6 squares at r = 1/64, the smallest
        # default side; its mass-weighted basis tail (1/1.6)^N passes the
        # truncation check from N = 59 on.
        config = write(tmp_path, "lattice.json", json.dumps({
            "truncation": 64, "measure": {"type": "gaussian", "beta": 0.6}}))
        assert main(["lattice-approx", "--config", config]) == 0
        rows = parse_report(capsys.readouterr().out)["data"]["rows"]
        assert [row["r"] for row in rows] == [2.0 ** -n for n in range(7)]


class TestPointMassTruncation:
    """A mass the truncation cannot represent stops with exit 2."""

    @pytest.mark.parametrize("subcommand",
                             ["toeplitz", "hankel", "trace-check"])
    def test_far_unit_mass_is_two(self, tmp_path, capsys, subcommand):
        config = write(tmp_path, "far.json", json.dumps({
            "truncation": 64, "measure": {"type": "point_masses",
                                          "points": [{"x": 20, "y": 0}]}}))
        assert main([subcommand, "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("TruncationError: kernel basis tail")


class TestNodeBudget:
    """Quadrature grids over the budget stop before any node is
    computed."""

    @pytest.mark.parametrize("subcommand, alpha", [
        # 7.8e7 nodes fit the memory budget; at 7 offsets they take 163 s
        ("kernel-continuity", 5e4),
        ("kernel-continuity", 1e6),
        ("berezin", 1e300),
        ("kernel-continuity", 1e300),
        ("berezin", 1e308),
        ("kernel-continuity", 1e308),
    ])
    def test_resource_error_is_two(self, tmp_path, capsys, subcommand, alpha):
        config = write(tmp_path, "grid.json", json.dumps({
            "alpha": alpha,
            "measure": {"type": "uniform_disk", "radius": 1.0}}))
        start = time.monotonic()
        assert main([subcommand, "--config", config]) == 2
        assert time.monotonic() - start < 10.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ResourceError: polar grid")


class TestTransformBudget:
    """A Berezin transform too large to compute stops before its kernel;
    a disk's transform is a closed form and answers."""

    def test_resource_error_is_two(self):
        # the unit disk as a sampled density: 601 points against
        # 537 x 8834 nodes, 2.9e9 kernel entries
        mu = Density(lambda w: np.ones(w.shape, dtype=complex), 1.0)
        z = np.linspace(0.0, 1.1, 601).astype(complex)
        start = time.monotonic()
        with pytest.raises(ResourceError, match="^Berezin transform"):
            berezin_measure(mu, z, FockParams(alpha=2000.0))
        assert time.monotonic() - start < 10.0

    @pytest.mark.parametrize("subcommand", ["berezin", "rigidity"])
    def test_alpha_2000_disk_answers(self, tmp_path, capsys, subcommand):
        # the nested quadrature needed 2.9e9 kernel entries here
        config = write(tmp_path, "disk.json", json.dumps({
            "alpha": 2000,
            "measure": {"type": "uniform_disk", "radius": 1.0}}))
        start = time.monotonic()
        assert main([subcommand, "--config", config]) == 0
        assert time.monotonic() - start < 10.0
        report = parse_report(capsys.readouterr().out)
        assert all(check["passed"] for check in report["checks"])
        if subcommand == "berezin":
            assert [c["name"] for c in report["checks"]] == ["mass_identity"]


def _cloud(points):
    return {"alpha": 1e4, "measure": {"type": "point_masses", "points": [
        {"x": x, "y": y, "w_re": w} for x, y, w in points]}}


# point clouds at alpha 1e4 whose Berezin grids the address-space cap met:
# 2,344 x 148,462 nodes ended in an _ArrayMemoryError traceback and
# 1,600 x 68,284 in SIGSEGV; 1,324 x 7,658 nodes answer in 3.4 s at 654 MiB
POSITIVE_CLOUD = _cloud([(1.9, 0, 1), (0.5, 0.5, 1), (-0.7, 0.3, 1),
                         (0.2, -1.1, 1), (-1.2, -0.8, 1)])
SIGNED_CLOUD = _cloud([(1.28, 0, 1), (0.3, 0.9, -0.5), (-0.6, 0.2, 0.8),
                       (0.1, -0.7, -1.2), (-0.9, -0.5, 0.6)])
ONE_MASS = _cloud([(0.5, 0.25, 1)])

CAP_BYTES = 3_000_000_000  # CI's ulimit -v 3000000
WALL_SECONDS = 60
# extreme values, and ordinary ones that reach the code past the refusals
EXTREMES = st.sampled_from([5e-324, 1e-300, 1e-8, 20.0, 1e4, 1e8, 1e300,
                            1.7e308]) | st.floats(0.05, 4.0)
COORDS = st.sampled_from([-1e8, 20.0, 1.5e308]) | st.floats(-2.0, 2.0)
FUZZ_POINTS = st.lists(st.fixed_dictionaries({
    "x": COORDS, "y": COORDS,
    "w_re": st.sampled_from([1.0, -0.5, 1e-300, 1e300])}), max_size=4)
FUZZ_MEASURES = st.one_of(
    st.fixed_dictionaries({"type": st.just("point_masses"),
                           "points": FUZZ_POINTS | FUZZ_POINTS.map(
                               lambda points: points * 100)}),
    st.fixed_dictionaries({"type": st.just("uniform_disk"),
                           "radius": EXTREMES}),
    st.fixed_dictionaries({"type": st.just("gaussian"), "beta": EXTREMES,
                           "x": COORDS, "y": COORDS}))
FUZZ_CONFIGS = st.fixed_dictionaries({
    "alpha": EXTREMES, "truncation": st.sampled_from([8, 32, 128]),
    "measure": FUZZ_MEASURES,
    "r_values": st.lists(EXTREMES, min_size=1, max_size=3, unique=True).map(
        lambda values: sorted(values, reverse=True)),
    "exponents": st.fixed_dictionaries({
        "p": st.sampled_from([1.0, 4.0 / 3.0, 2.0]),
        "q": st.sampled_from([2.0, 4.0, 1e300])})})


def _capped_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


class TestFuzzUnderCap:
    """Any schema-valid config ends in a report, a tolerance failure or a
    typed refusal within CI's 3 GB address-space cap: never a traceback
    or a signal.  Each config runs in its own child process, one at a
    time."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(subcommand=st.sampled_from(sorted(cli.SUBCOMMANDS)),
           config=FUZZ_CONFIGS)
    @example(subcommand="berezin", config=POSITIVE_CLOUD)
    @example(subcommand="rigidity", config=POSITIVE_CLOUD)
    @example(subcommand="berezin", config=SIGNED_CLOUD)
    @example(subcommand="berezin", config=ONE_MASS)
    def test_ends_in_exit_code(self, subcommand, config):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(config, f)
            done = subprocess.run(
                [sys.executable, "-m", "focklab.cli", subcommand,
                 "--config", path], capture_output=True, text=True, env=env,
                timeout=WALL_SECONDS, preexec_fn=_capped_address_space)
        assert done.returncode in (0, 1, 2), (done.returncode, done.stderr)
        assert "Traceback" not in done.stderr, done.stderr
        if done.returncode == 1:
            assert done.stderr.startswith("tolerance failure: ")
        if done.returncode == 2:
            assert done.stdout == ""
            assert re.match(r"[A-Za-z]+Error: ", done.stderr), done.stderr


class TestRefusedConfigs:
    """Configs that once ended in a traceback or a NaN report exit 2."""

    @pytest.mark.parametrize("config", [
        # built 20,000 Gauss-Legendre nodes, 2.98 GiB, while parsing
        {"grid": {"cutoff_radius": 5, "radial_nodes": 20000,
                  "angular_nodes": 4}},
        # wrote NaN distances: alpha x offset x node overflowed
        {"alpha": 1e308, "grid": {"cutoff_radius": 5, "radial_nodes": 64,
                                  "angular_nodes": 64}},
    ])
    def test_grid_is_unknown(self, tmp_path, capsys, config):
        path = write(tmp_path, "grid.json", json.dumps(config))
        assert_exit_two(capsys, ["kernel-continuity", "--config", path],
                        "ConfigError: grid: unknown key")

    def test_close_counterexample_exponents(self, tmp_path, capsys):
        path = write(tmp_path, "close.json",
                     '{"exponents": {"p": 1.5, "q": 1.52}}')
        assert_exit_two(capsys, ["counterexample", "--config", path],
                        "ConfigError: exponents: the last index")

    @pytest.mark.parametrize("subcommand", ["toeplitz", "trace-check",
                                            "lattice-approx", "rigidity"])
    def test_point_masses_overflowing_fsum(self, tmp_path, capsys,
                                           subcommand):
        path = write(tmp_path, "heavy.json", json.dumps({
            "measure": {"type": "point_masses",
                        "points": [{"x": 0, "y": 0, "w_re": 1e308},
                                   {"x": 0.5, "y": 0, "w_re": 1e308}]}}))
        assert_exit_two(capsys, [subcommand, "--config", path],
                        "ConfigError: measure: (alpha/pi)|mu|(C) of the "
                        "point_masses measure overflows")

    def test_disk_amplitude_overflowing(self, tmp_path, capsys):
        # used to write a report with 10 NaN lines
        path = write(tmp_path, "disk.json", json.dumps({
            "measure": {"type": "uniform_disk", "radius": 1.0,
                        "amplitude": 1e308}}))
        assert_exit_two(capsys, ["trace-check", "--config", path],
                        "ConfigError: measure: (alpha/pi)|mu|(C) of the "
                        "uniform_disk measure overflows")

    def test_nonfinite_report_value_named(self, tmp_path, capsys):
        # sigma^2 = (1e200 / pi)^2 overflows in the Schatten 2-norm
        path = write(tmp_path, "mass.json", json.dumps({
            "measure": {"type": "point_masses",
                        "points": [{"x": 0, "y": 0, "w_re": 1e200}]}}))
        assert_exit_two(capsys, ["schatten", "--config", path],
                        "NonFiniteError: data.schatten_2: not a finite float")

    @pytest.mark.parametrize("subcommand, message", [
        ("berezin", "ResourceError: polar grid of inf x inf nodes"),
        ("trace-pairing", "TruncationError: kernel basis tail 1.000e+00 "
                          "over the symbol support"),
    ])
    def test_gaussian_centre_past_float_range(self, tmp_path, capsys,
                                              subcommand, message):
        # |c| overflowed in the support radius: OverflowError traceback
        path = write(tmp_path, "far.json", json.dumps({
            "measure": {"type": "gaussian", "beta": 1, "x": 1.5e308,
                        "y": 1.5e308}}))
        assert_exit_two(capsys, [subcommand, "--config", path], message)

    @pytest.mark.parametrize("subcommand", ["trace-check", "schatten"])
    @pytest.mark.parametrize("beta, tail", [(0.01, "5.290e-01"),
                                            (1e-300, "1.000e+00")])
    def test_gaussian_past_truncation(self, tmp_path, capsys, subcommand,
                                      beta, tail):
        # beta 0.01: trace-check reported trace 47.1 against 100 and exited
        # 1, and schatten passed on the norms of the truncated matrix
        path = write(tmp_path, "wide.json", json.dumps({
            "truncation": 64, "measure": {"type": "gaussian", "beta": beta}}))
        assert_exit_two(capsys, [subcommand, "--config", path],
                        f"TruncationError: kernel basis tail {tail}, "
                        f"weighted by mass over the Gaussian")

    def test_disk_past_truncation(self, tmp_path, capsys):
        # reported trace 64 against 400 and exited 1
        path = write(tmp_path, "wide.json", json.dumps({
            "truncation": 64,
            "measure": {"type": "uniform_disk", "radius": 20.0}}))
        assert_exit_two(capsys, ["trace-check", "--config", path],
                        "TruncationError: kernel basis tail 8.400e-01, "
                        "weighted by mass over the disk of radius 20")

    @pytest.mark.parametrize("subcommand", ["trace-check", "schatten"])
    def test_subnormal_alpha_covering_grid(self, tmp_path, capsys,
                                           subcommand):
        # the cutoff's square overflowed, and the NonFiniteError named a
        # report field
        path = write(tmp_path, "alpha.json", json.dumps({
            "alpha": 1e-310,
            "measure": {"type": "uniform_disk", "radius": 1.0}}))
        assert_exit_two(capsys, [subcommand, "--config", path],
                        "QuadratureError: covering grid at alpha 1e-310")

    @pytest.mark.parametrize("subcommand, truncation", [
        ("toeplitz", 4097), ("toeplitz", 100000), ("trace-check", 100000),
        ("hankel", 100000), ("hankel", 3000000000)])
    def test_truncation_over_budget(self, tmp_path, capsys, subcommand,
                                    truncation):
        # 100000 ended in an _ArrayMemoryError traceback, 3000000000 in
        # "ValueError: array is too big"
        path = write(tmp_path, "big.json", json.dumps({
            "truncation": truncation,
            "measure": {"type": "uniform_disk", "radius": 1.0}}))
        start = time.monotonic()
        assert_exit_two(capsys, [subcommand, "--config", path],
                        f"ResourceError: truncation {truncation} ")
        assert time.monotonic() - start < 2.0

    def test_truncation_flag_over_budget(self, tmp_path, capsys):
        path = write(tmp_path, "pm.json", MINIMAL)
        start = time.monotonic()
        assert_exit_two(capsys, ["toeplitz", "--config", path,
                                 "--truncation", "100000"],
                        "ResourceError: truncation 100000 ")
        assert time.monotonic() - start < 2.0

    def test_truncation_flag_below_floor(self, tmp_path, capsys):
        path = write(tmp_path, "pm.json", MINIMAL)
        assert_exit_two(capsys, ["toeplitz", "--config", path,
                                 "--truncation", "4"],
                        "ConfigError: truncation: must be at least 8")

    @pytest.mark.parametrize("text", [
        "[" * 100000,  # json.loads raised RecursionError: exit 1
        '{"truncation": ' + "1" * 5000 + "}",  # ValueError past 4300 digits
    ])
    def test_undecodable_config(self, tmp_path, capsys, text):
        path = write(tmp_path, "deep.json", text)
        start = time.monotonic()
        assert_exit_two(capsys, ["toeplitz", "--config", path],
                        "ConfigError: not valid JSON: ")
        assert time.monotonic() - start < 2.0

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310])
    def test_subnormal_counterexample_alpha(self, tmp_path, capsys, alpha):
        # ended in an OverflowError traceback: the pairing term carries
        # pi / alpha, which overflows
        path = write(tmp_path, "alpha.json", json.dumps({"alpha": alpha}))
        assert_exit_two(capsys, ["counterexample", "--config", path],
                        "NonFiniteError: data.divergence_terms[0]: "
                        "not a finite float")


class TestCsvOutput:

    def test_csv_embeds_version_and_hash(self, tmp_path, capsys):
        config = write(tmp_path, "g.json", GAUSS)
        assert main(["trace-check", "--config", config,
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# focklab ")
        assert "config_sha256=" in lines[0]
        assert lines[1] == "name,value"
        names = [line.split(",")[0] for line in lines[2:]]
        assert "trace_re" in names

    def test_csv_floats_round_trip(self, tmp_path, capsys):
        config = write(tmp_path, "pm.json", MINIMAL)
        assert main(["toeplitz", "--config", config, "--format", "csv",
                     "--truncation", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "m,n,re,im"
        m, n, re, im = lines[2].split(",")
        assert (int(m), int(n)) == (0, 0)
        assert float(re) == pytest.approx(1.0 / 3.141592653589793, rel=1e-12)


class TestCsvMatchesJson:
    """CSV row k holds the k-th entry of each list or record of the JSON
    report's data, value for value."""

    def run_both(self, tmp_path, capsys, argv):
        assert main(argv) == 0
        data = parse_report(capsys.readouterr().out)["data"]
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[1].split(",")
        return data, [dict(zip(header, map(float, line.split(","))))
                      for line in lines[2:]]

    def test_counterexample(self, tmp_path, capsys):
        data, rows = self.run_both(tmp_path, capsys, ["counterexample"])
        columns = {"index": "indices",
                   "membership_f": "membership_f_terms",
                   "membership_g": "membership_g_terms",
                   "divergence_partial": "divergence_partial_sums",
                   "pairing_residual": "pairing_identity_residuals",
                   "growth_ratio": "growth_ratios"}
        assert len(rows) == len(data["indices"]) == 8
        for k, row in enumerate(rows):
            assert row.pop("k") == k + 1
            assert row == {column: data[key][k]
                           for column, key in columns.items()}

    @pytest.mark.parametrize("subcommand", ["lattice-approx", "rigidity"])
    def test_records(self, tmp_path, capsys, subcommand):
        config = write(tmp_path, "disk.json", json.dumps({
            "truncation": 32, "r_values": [0.5, 0.25],
            "measure": {"type": "uniform_disk", "radius": 1.0}}))
        data, rows = self.run_both(tmp_path, capsys,
                                   [subcommand, "--config", config])
        assert rows == data["rows"]
        assert len(rows) == (2 if subcommand == "lattice-approx" else 1)


class TestRoundTrip:
    """Reports carry matrix entries bit-exactly, in JSON and in CSV."""

    PARAMS = FockParams(alpha=1.0)

    def test_json_bit_exact(self, tmp_path, capsys):
        config = write(tmp_path, "g.json",
                       '{"truncation": 24, "measure": {"type": "gaussian", '
                       '"beta": 2.0, "x": 0.0, "y": 0.3}}')
        assert main(["toeplitz", "--config", config]) == 0
        data = parse_report(capsys.readouterr().out)["data"]
        op = build_from_measure(GaussianDensity(1.0, 2.0, center=0.3j), 24,
                                self.PARAMS)
        entries = np.array([[complex(re, im) for re, im in row]
                            for row in data["entries"]])
        assert np.array_equal(entries, op.entries)
        assert data["truncation"] == 24
        assert data["provenance"] == op.provenance

    def test_json_hankel(self, tmp_path, capsys):
        config = write(tmp_path, "pm.json",
                       '{"truncation": 12, "measure": {"type": "point_masses",'
                       ' "points": [{"x": 0.5, "y": 0.0}]}}')
        assert main(["hankel", "--config", config]) == 0
        data = parse_report(capsys.readouterr().out)["data"]
        h = build_hankel(PointMasses(((0.5, 1.0),)), 12, self.PARAMS)
        entries = np.array([[complex(re, im) for re, im in row]
                            for row in data["entries"]])
        assert np.array_equal(entries, h.entries)

    def test_csv_bit_exact(self, tmp_path, capsys):
        config = write(tmp_path, "pm.json",
                       '{"truncation": 16, "measure": {"type": "point_masses",'
                       ' "points": [{"x": 0.5, "y": 0.5, "w_re": 0.5}, '
                       '{"x": 0, "y": 0, "w_re": 1}]}}')
        assert main(["toeplitz", "--config", config, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "m,n,re,im"
        entries = np.zeros((16, 16), dtype=complex)
        for line in lines[2:]:
            m, n, re, im = line.split(",")
            entries[int(m), int(n)] = complex(float(re), float(im))
        assert len(lines) == 2 + 16 * 16
        op = build_from_measure(PointMasses(((0.5 + 0.5j, 0.5), (0j, 1.0))), 16,
                                self.PARAMS)
        assert np.array_equal(entries, op.entries)


def awkward_matrix(size, seed):
    """Random complex entries, overwritten in places by floats whose repr
    is awkward: signed zeros, subnormals, and values either side of the
    switches to exponent form near 1e16 and 1e-4."""
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    awkward = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 9.99e-5,
               1e-4, 1e16, 9999999999999998.0, 1.2345678901234567e16, -1e22,
               0.1 + 0.2]
    entries.real.flat[:len(awkward)] = awkward
    entries.imag.flat[-len(awkward):] = awkward
    entries.flat[size + 1] = 0j
    entries.flat[size + 2] = complex(-0.0, -0.0)
    entries.setflags(write=False)
    return entries


def matrix_report(entries):
    tr = np.trace(entries)
    return {"subcommand": "toeplitz", "version": "0", "config_sha256": "0",
            "seed": None,
            "data": {"truncation": entries.shape[0],
                     "trace_re": float(tr.real), "trace_im": float(tr.imag),
                     "entries": entries, "provenance": "test"},
            "checks": [], "passed": True}


class TestMatrixRendering:
    """Matrix payloads written from the array, byte for byte as json.dumps
    and the row-by-row CSV join write them from Python floats."""

    @pytest.mark.parametrize("size", [8, 64, 128])
    def test_json_matches_json_dumps(self, size):
        entries = awkward_matrix(size, size)
        report = matrix_report(entries)
        listed = dict(report, data=dict(report["data"], entries=[
            [[float(v.real), float(v.imag)] for v in row]
            for row in entries]))
        out = io.StringIO()
        render_json(report, out.write)
        assert out.getvalue() == json.dumps(listed, indent=2) + "\n"

    @pytest.mark.parametrize("size", [8, 64, 128])
    def test_csv_matches_row_join(self, size):
        entries = awkward_matrix(size, size + 1)
        report = matrix_report(entries)
        lines = ["# focklab 0 config_sha256=0", "m,n,re,im"]
        lines += [",".join((str(m), str(n), repr(float(v.real)),
                            repr(float(v.imag))))
                  for (m, n), v in np.ndenumerate(entries)]
        out = io.StringIO()
        render_csv(report, ("m", "n", "re", "im"), entries, out.write)
        assert out.getvalue() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("command", ["toeplitz", "hankel"])
    def test_nonfinite_entry_named(self, tmp_path, capsys, monkeypatch,
                                   command):
        entries = np.zeros((8, 8), dtype=complex)
        entries[2, 3] = complex(0.5, math.nan)
        entries[3, 2] = complex(0.5, math.nan)
        entries[5, 6] = entries[6, 5] = complex(math.inf, 0.0)

        def build(mu, size, params):
            return TruncatedOperator(entries, size, params)

        monkeypatch.setattr(cli, "build_from_measure", build)
        monkeypatch.setattr(cli, "build_hankel", build)
        path = write(tmp_path, "g.json", GAUSS)
        assert_exit_two(capsys, [command, "--config", path,
                                 "--truncation", "8"],
                        "NonFiniteError: data.entries[2][3][1]: "
                        "not a finite float")


SPECIAL_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e308,
    -1e308, 1.7976931348623157e308, 1.0 / 3.0, -1.0 / 3.0, 1e16, 1e-5])


@st.composite
def report_matrices(draw):
    """Complex matrices of 1-12 x 1-12 whose floats are special values,
    repeats or any finite float, general or an exact Hermitian, symmetric
    or diagonal mirror."""
    shape = draw(st.sampled_from(["general", "hermitian", "symmetric",
                                  "diagonal"]))
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12)) if shape == "general" else rows
    pool = draw(st.lists(SPECIAL_FLOATS | st.floats(allow_nan=False,
                                                    allow_infinity=False),
                         min_size=1, max_size=6))
    floats = draw(st.lists(st.sampled_from(pool) | SPECIAL_FLOATS,
                           min_size=2 * rows * cols,
                           max_size=2 * rows * cols))
    entries = np.array(floats).view(complex).reshape(rows, cols)
    below = np.tril(np.ones((rows, cols), dtype=bool), -1)
    if shape == "hermitian":
        entries = np.where(below, np.conj(entries.T), entries)
    elif shape == "symmetric":
        entries = np.where(below, entries.T, entries)
    elif shape == "diagonal":
        entries = np.where(np.eye(rows, dtype=bool), entries, 0.0)
    return entries


def listed_report(report):
    """The report with its matrix as the nested [[[re, im]]] list."""
    entries = report["data"]["entries"]
    return dict(report, data=dict(report["data"], entries=[
        [[float(v.real), float(v.imag)] for v in row] for row in entries]))


def csv_rows(entries):
    return "".join("%d,%d,%r,%r\n" % (m, n, float(v.real), float(v.imag))
                   for (m, n), v in np.ndenumerate(entries))


class TestStreamedRendering:
    """Matrix reports formatted a distinct magnitude at a time and written
    a block of rows at a time, whatever the block size."""

    @settings(max_examples=100, deadline=None)
    @given(entries=report_matrices(), block=st.integers(1, 300))
    def test_json_matches_json_dumps(self, entries, block):
        with np.errstate(over="ignore", invalid="ignore"):
            report = matrix_report(entries)
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_FLOATS", block)
            render_json(report, out.write)
        assert out.getvalue() == json.dumps(listed_report(report),
                                            indent=2) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(entries=report_matrices(), block=st.integers(1, 300))
    def test_csv_matches_row_format(self, entries, block):
        with np.errstate(over="ignore", invalid="ignore"):
            report = matrix_report(entries)
        out = io.StringIO()
        header = ("m", "n", "re", "im")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_FLOATS", block)
            render_csv(report, header, entries, out.write)
        assert out.getvalue() == ("# focklab 0 config_sha256=0\nm,n,re,im\n"
                                  + csv_rows(entries))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["toeplitz", "hankel"])
    def test_out_file_holds_stdout(self, tmp_path, capsys, monkeypatch,
                                   command, fmt):
        # a matrix of 12 rows in blocks of 5, 5 and 2
        entries = awkward_matrix(12, 3)
        entries = np.where(np.tril(np.ones((12, 12), dtype=bool)),
                           entries, entries.T)

        def build(mu, size, params):
            return TruncatedOperator(entries, size, params)

        monkeypatch.setattr(cli, "build_from_measure", build)
        monkeypatch.setattr(cli, "build_hankel", build)
        monkeypatch.setattr(cli, "_BLOCK_FLOATS", 5 * 24)
        config = write(tmp_path, "g.json", GAUSS)
        out = tmp_path / f"report.{fmt}"
        assert main([command, "--config", config, "--truncation", "12",
                     "--format", fmt, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == text
        if fmt == "json":
            report = parse_report(text)
            assert report["data"]["entries"] == listed_report(
                matrix_report(entries))["data"]["entries"]
        else:
            assert text.split("\n", 2)[2] == csv_rows(entries)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_file_write_leaves_stdout_empty(self, tmp_path, capsys,
                                                   monkeypatch, fmt):
        # the report file's disk fills after its first block
        real_open = open

        class FullDisk(io.StringIO):
            def write(self, text):
                if self.getvalue():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

        def full_disk_open(path, mode="r", **kwargs):
            if mode == "w":
                return FullDisk()
            return real_open(path, mode, **kwargs)

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        monkeypatch.setattr(cli, "_BLOCK_FLOATS", 24)
        config = write(tmp_path, "g.json", GAUSS)
        assert_exit_two(capsys, ["toeplitz", "--config", config,
                                 "--truncation", "32", "--format", fmt,
                                 "--out", str(tmp_path / "r.txt")],
                        "ConfigError: cannot write report: [Errno 28]")

    def test_out_to_device_still_prints(self, tmp_path, capsys):
        config = write(tmp_path, "g.json", GAUSS)
        assert main(["toeplitz", "--config", config,
                     "--truncation", "32"]) == 0
        text = capsys.readouterr().out
        assert main(["toeplitz", "--config", config, "--truncation", "32",
                     "--out", os.devnull]) == 0
        assert capsys.readouterr().out == text


class TestSubcommands:

    def test_counterexample_defaults(self, capsys):
        assert main(["counterexample"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["data"]["indices"] == [16 ** k for k in range(1, 9)]
        assert report["data"]["divergence_ratios"][0] == pytest.approx(
            1.805, abs=1e-12)
        assert report["passed"] is True

    def test_truncation_override(self, tmp_path, capsys):
        config = write(tmp_path, "pm.json", MINIMAL)
        assert main(["toeplitz", "--config", config,
                     "--truncation", "16"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["data"]["truncation"] == 16
        assert len(report["data"]["entries"]) == 16

    def test_seed_changes_probe_point(self, capsys):
        assert main(["kernel-continuity"]) == 0
        base = parse_report(capsys.readouterr().out)
        assert main(["kernel-continuity", "--seed", "7"]) == 0
        other = parse_report(capsys.readouterr().out)
        assert base["seed"] is None and other["seed"] == 7
        assert (base["data"]["z0_re"], base["data"]["z0_im"]) != \
            (other["data"]["z0_re"], other["data"]["z0_im"])
        assert base["passed"] and other["passed"]

    def test_negative_seed(self, capsys):
        # any integer seeds the probe angle
        assert main(["kernel-continuity", "--seed", "-1"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["seed"] == -1 and report["passed"]

    def test_rigidity_point_mass_bracket(self, tmp_path, capsys):
        config = write(tmp_path, "pm.json", MINIMAL)
        assert main(["rigidity", "--config", config]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["data"]["within_slack"] is True
        row = report["data"]["rows"][0]
        assert row["q"] <= row["p"]

    def test_lattice_approx_rows(self, tmp_path, capsys):
        config = write(
            tmp_path, "disk.json",
            '{"measure": {"type": "uniform_disk", "radius": 1.0}, '
            '"r_values": [1.0, 0.5, 0.25]}')
        assert main(["lattice-approx", "--config", config]) == 0
        report = parse_report(capsys.readouterr().out)
        errors = [row["s1_error"] for row in report["data"]["rows"]]
        assert errors == sorted(errors, reverse=True)

    def test_schatten_identity_bounds(self, tmp_path, capsys):
        config = write(tmp_path, "g.json", GAUSS)
        assert main(["schatten", "--config", config]) == 0
        report = parse_report(capsys.readouterr().out)
        data = report["data"]
        assert data["transform_l1"] <= data["schatten_1"] + 1e-8
        assert len(data["singular_values"]) == 64


ROOT = Path(__file__).resolve().parents[1]


def hashed_configs(monkeypatch):
    """Config texts of benchmark seeds 0-2, then those the CI workflow
    writes, that parse_config accepts and so hashes."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from corpus import WORKLOADS, generate
    texts = [case.text for workload in sorted(WORKLOADS)
             for seed in range(3) for case in generate(workload, seed)]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(
        encoding="utf-8")
    accepted = []
    for text in texts + re.findall(r"echo '(\{.*\})' >", workflow):
        try:
            parse_config(text)
        except FocklabError:
            continue
        accepted.append(text)
    return accepted


class TestImports:
    """The command line runs on numpy and the lighter standard library
    modules (no OpenSSL, no dataclasses), and loads all of it up front."""

    def run_python(self, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", code], cwd=src,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_cli_import_loads_no_scipy(self):
        out = self.run_python(
            "import sys, focklab.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert out.strip() == "[]"

    def loaded_around_subcommands(self, tmp_path, module):
        """Whether ``module`` is loaded after importing the command line,
        then after running every subcommand on the unit disk."""
        disk = write(tmp_path, "disk.json", json.dumps({
            "truncation": 32, "measure": {"type": "uniform_disk",
                                          "radius": 1.0}}))
        out = self.run_python(
            "import contextlib, io, sys, focklab.cli\n"
            f"print({module!r} in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for name in focklab.cli.SUBCOMMANDS:\n"
            f"        code = focklab.cli.main([name, '--config', {disk!r}])\n"
            "        assert code == 0, name\n"
            f"print({module!r} in sys.modules)")
        return out.split()

    def test_exit_freezes_collector(self):
        # the interpreter's last collections would walk every object the
        # imports left; atexit runs its handlers last in first out, so the
        # freeze the command line registers runs before this handler
        out = self.run_python(
            "import atexit, gc\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "import focklab.cli")
        assert out.strip() == "True"

    def test_no_numpy_polynomial(self, tmp_path):
        # Gauss-Legendre rules come from focklab.numerics
        assert self.loaded_around_subcommands(
            tmp_path, "numpy.polynomial") == ["False", "False"]

    @pytest.mark.parametrize("module", ["_hashlib", "dataclasses"])
    def test_no_heavy_stdlib(self, tmp_path, module):
        # hashlib loads OpenSSL and @dataclass compiles its methods at import,
        # a cost every report process would pay before its first number
        assert self.loaded_around_subcommands(
            tmp_path, module) == ["False", "False"]

    def test_digest_is_sha256(self, monkeypatch):
        texts = hashed_configs(monkeypatch)
        assert len(texts) > 261  # the CI configs were found
        for config in map(parse_config, texts):
            payload = config.normalized()
            del payload["output"]
            canonical = json.dumps(payload, sort_keys=True,
                                   separators=(",", ":"))
            assert config.digest() == hashlib.sha256(
                canonical.encode("utf-8")).hexdigest()

    def test_digest_fallback_to_hashlib(self, tmp_path, monkeypatch):
        texts = hashed_configs(monkeypatch)
        path = write(tmp_path, "configs.json", json.dumps(texts))
        out = self.run_python(
            "import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from focklab.cli import parse_config\n"
            f"texts = json.load(open({path!r}))\n"
            "print(json.dumps([parse_config(t).digest() for t in texts]))\n"
            "print('_hashlib' in sys.modules)")
        digests, fell_back = out.splitlines()
        assert json.loads(digests) == [parse_config(t).digest()
                                       for t in texts]
        assert fell_back == "True"

    def test_no_numpy_random(self, tmp_path):
        # kernel-continuity draws its probe angle from the standard library
        assert self.loaded_around_subcommands(
            tmp_path, "numpy.random") == ["False", "False"]

    def test_main_first_imports_no_module(self, tmp_path):
        # numpy loads fft lazily and argparse imports locale on first use;
        # a first import inside main lands in every report's compute time.
        # The density toeplitz report runs first, then the subcommands with
        # other code paths.
        density = {"truncation": 32, "measure": {
            "type": "gaussian", "beta": 1.2, "x": 0.5, "y": -0.3}}
        disk = {"truncation": 32, "measure": {"type": "uniform_disk",
                                               "radius": 1.0}}
        runs = [("toeplitz", density), ("trace-check", disk),
                ("lattice-approx", disk), ("counterexample", {}),
                ("kernel-continuity", {})]
        argvs = [[name, "--config", write(tmp_path, f"{name}.json",
                                           json.dumps(config))]
                 for name, config in runs]
        out = self.run_python(
            "import contextlib, io, sys, focklab.cli\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for argv in {argvs!r}:\n"
            "        assert focklab.cli.main(argv) == 0, argv\n"
            "print(sorted(set(sys.modules) - before))")
        assert out.strip() == "[]"
