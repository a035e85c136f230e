import numpy as np
import pytest

from bgrecon.svgplot import emit_plot


def test_emit_plot_rejects_empty_series(tmp_path):
    with pytest.raises(ValueError):
        emit_plot([], str(tmp_path / "out.svg"))


def test_emit_plot_rejects_mismatched_lengths(tmp_path):
    out = tmp_path / "out.svg"
    with pytest.raises(ValueError):
        emit_plot([("s", [0, 1, 2], [0, 1])], str(out))
    assert not out.exists()


def test_emit_plot_structure(tmp_path):
    out = tmp_path / "plot.svg"
    xs = np.array([0.0, 1.0, 2.0])
    emit_plot([("quad", xs, xs**2), ("decay", [0, 1, 2], [1, 0.5, 0.25])], str(out))
    text = out.read_text()
    assert text.count("<polyline") == 2
    assert "quad" in text and "decay" in text
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    # the x range [0, 2] spans the plot area, the y range [0, 4] its height
    assert 'points="60.00,440.00 400.00,345.00 740.00,60.00"' in text


def test_emit_plot_deterministic(tmp_path):
    out1 = tmp_path / "p1.svg"
    out2 = tmp_path / "p2.svg"
    emit_plot([("s", [0, 0.5, 1], [3, 2, 5])], str(out1))
    emit_plot([("s", np.array([0, 0.5, 1]), np.array([3.0, 2.0, 5.0]))], str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_emit_plot_degenerate_ranges(tmp_path):
    # a single point collapses both axis ranges; padding must keep the
    # coordinate transforms finite
    out = tmp_path / "p.svg"
    emit_plot([("pt", [1.0], [2.0])], str(out))
    text = out.read_text()
    assert "nan" not in text.lower()
    assert 'points="60.00,440.00"' in text
