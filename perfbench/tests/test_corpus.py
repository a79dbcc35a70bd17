import json

import pytest

from corpus import WORKLOADS, generate, write_corpus


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_config_files(workload, tmp_path):
    first = write_corpus(generate(workload, 7), tmp_path / "a")
    second = write_corpus(generate(workload, 7), tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_moves_parameters_but_not_slots(workload):
    a, b = generate(workload, 1), generate(workload, 2)
    assert [c.text for c in a] != [c.text for c in b]
    shape = [(c.subcommand, c.truncation, c.output_format,
              c.config["measure"]["type"] == "point_masses") for c in a]
    assert shape == [(c.subcommand, c.truncation, c.output_format,
                      c.config["measure"]["type"] == "point_masses")
                     for c in b]


def test_configs_parse_under_the_cli(tmp_path):
    from focklab.cli import parse_config

    for workload in WORKLOADS:
        for case in generate(workload, 3):
            config = parse_config(case.text)
            assert config.output_format == case.output_format
            assert config.truncation == case.truncation


def test_assembly_covers_both_formats_and_every_truncation():
    cases = generate("assembly", 0)
    for sub in ("toeplitz", "hankel"):
        mine = [c for c in cases if c.subcommand == sub]
        assert {c.output_format for c in mine} == {"json", "csv"}
        assert {c.truncation for c in mine} == {64, 96, 128}
    off_centre = [c for c in cases if c.config["measure"].get("x")]
    assert {c.truncation for c in off_centre} == {64, 96, 128}


def test_config_text_is_canonical_json():
    case = generate("lattice", 0)[0]
    assert case.text == json.dumps(json.loads(case.text), indent=2,
                                   sort_keys=True) + "\n"


def test_lattice_approx_draws_every_measure_kind():
    kinds = {c.config["measure"]["type"] for c in generate("lattice", 0)
             if c.subcommand == "lattice-approx"}
    assert kinds == {"uniform_disk", "gaussian", "point_masses"}
