import contextlib
import io

import focklab
import focklab.cli
import pytest

from tracing import Tracer, layer_metrics


def test_wrappers_cover_every_binding_and_are_removed(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"truncation": 8, "measure": {"type": "point_masses", '
                    '"points": [{"x": 0.5, "y": 0.0}, {"x": 0.0, "y": 0.5}]}}')
    original = focklab.cli.build_from_measure
    tracer = Tracer()
    with tracer.installed(focklab), tracer.report("r"):
        assert focklab.cli.build_from_measure is not original
        assert focklab.lattice.build_from_measure \
            is focklab.cli.build_from_measure
        with contextlib.redirect_stdout(io.StringIO()):
            assert focklab.cli.main(["schatten", "--config", str(path)]) == 0
    assert focklab.cli.build_from_measure is original
    assert focklab.cli.SUBCOMMANDS["schatten"] is focklab.cli.run_schatten

    fn = tracer.per_function()
    assert fn["cli.run_schatten"]["calls"] == 1
    assert fn["toeplitz.build_from_point_masses"]["calls"] == 1
    # the point masses, then the covering grid of the transform
    assert tracer.counts["toeplitz.basis_matrix.samples"] \
        == 8 * 2 + 8 * 96 * 64
    # one SVD for the spectrum, then S1, S2 and the operator norm of the
    # same matrix; the adjoint is a different matrix
    assert tracer.counts["toeplitz.singular_values.calls"] == 5
    assert tracer.counts["toeplitz.singular_values.repeats"] == 3
    for row in fn.values():
        assert 0.0 <= row["self_s"] <= row["busy_s"] + 1e-9

    metrics = layer_metrics(tracer, 1.0, 1.0, 10, 0)
    assert metrics["toeplitz.svd.repeat_frac"]["value"] == pytest.approx(0.6)
    assert metrics["toeplitz.basis_matrix.bytes"]["value"] \
        == 16 * tracer.counts["toeplitz.basis_matrix.samples"]


def test_self_time_excludes_traced_children_and_busy_skips_reentry():
    tracer = Tracer()
    inner = tracer._wrap(lambda: None, "m.inner")

    def body(depth):
        inner()
        if depth:
            outer(depth - 1)

    outer = tracer._wrap(body, "m.outer")
    outer(1)
    fn = tracer.per_function()
    assert fn["m.outer"]["calls"] == 2
    assert fn["m.inner"]["calls"] == 2
    outer_spans = [s for s in tracer.spans if s[3] == "m.outer"]
    assert fn["m.outer"]["busy_s"] == pytest.approx(
        max(end - start for _, _, _, _, start, end, _, _ in outer_spans))
    total = sum(s[6] for s in tracer.spans)
    assert total == pytest.approx(fn["m.outer"]["busy_s"])
