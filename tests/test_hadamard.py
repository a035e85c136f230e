import math

import pytest

from bgrecon.hadamard import amplification_table, phi_k, u_k


def test_instance_rejects_nonpositive_k():
    with pytest.raises(ValueError, match="positive integer, got 0"):
        phi_k(0, 0.5)
    with pytest.raises(ValueError, match="positive integer, got 0"):
        u_k(0, 0.5, 0.5)
    with pytest.raises(ValueError):
        phi_k(-1, 0.5)


def test_datum_closed_form():
    for k in (1, 2, 5):
        x = 0.37
        assert phi_k(k, x) == pytest.approx(math.sin(math.pi * k * x) / (math.pi * k))


def test_solution_closed_form():
    k, x, y = 3, 0.25, 0.5
    expected = (
        math.sinh(math.pi * k * y) * math.sin(math.pi * k * x) / (math.pi * k) ** 2
    )
    assert u_k(k, x, y) == pytest.approx(expected)


def test_solution_vanishes_on_data_line():
    for k in (1, 4):
        assert u_k(k, 0.3, 0.0) == 0.0


def test_table_rows_match_closed_forms():
    rows = amplification_table(6)
    assert len(rows) == 6
    for k, data_norm, solution_sup, ratio in rows:
        pk = math.pi * k
        assert data_norm == pytest.approx(1.0 / pk, rel=1e-12)
        assert ratio == pytest.approx(math.sinh(pk) / pk, rel=1e-12)
        assert solution_sup == pytest.approx(math.sinh(pk) / pk**2, rel=1e-12)


def test_table_rejects_bad_kmax():
    with pytest.raises(ValueError):
        amplification_table(0)


def test_large_k_does_not_overflow():
    # sinh(pi k) overflows float64 near k = 226; the log-scale branch
    # must keep returning finite or inf values without raising
    rows = amplification_table(300)
    assert all(math.isfinite(r[1]) for r in rows)
    assert rows[200][3] > 1e200


def test_solution_beyond_the_log_scale_switch_is_unchanged():
    # the closed form as first written: sinh switches to exp(|x|)/2 at
    # |x| >= 700 and saturates to +-inf
    def u_reference(k, x, y):
        z = math.pi * k * y
        if abs(z) < 700:
            sinh = math.sinh(z)
        else:
            try:
                sinh = math.copysign(math.exp(abs(z) - math.log(2.0)), z)
            except OverflowError:
                sinh = math.copysign(math.inf, z)
        return sinh * math.sin(math.pi * k * x) / (math.pi * k) ** 2

    for k in (1, 223, 225, 300):
        for y in (-1.0, -0.95, -0.5, 0.0, 0.5, 0.95, 1.0):
            for x in (0.37, 0.61):
                assert u_k(k, x, y) == u_reference(k, x, y)
    # pi * 223 > 700: finite on the log scale; pi * 300: saturated
    assert -math.inf < u_k(223, 0.37, -1.0) < -1e290
    assert u_k(300, 0.37, -1.0) == -math.inf
