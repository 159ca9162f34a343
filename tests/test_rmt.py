import numpy as np
import pytest

from tiltedbh import b2_form_factor, make_rng

from conftest import goe_matrix, poisson_spectrum


def test_b2_boundary_values():
    assert b2_form_factor(0.0) == pytest.approx(1.0)
    assert b2_form_factor(1.0) == pytest.approx(np.log(3.0) - 1.0)
    assert b2_form_factor(1e6) == pytest.approx(0.0, abs=1e-6)


def test_b2_continuous_at_one():
    eps = 1e-9
    assert abs(b2_form_factor(1.0 - eps) - b2_form_factor(1.0 + eps)) < 1e-8


def test_b2_monotone_decreasing_to_zero():
    tau = np.linspace(0.0, 30.0, 4000)
    vals = b2_form_factor(tau)
    assert (np.diff(vals) < 0).all()
    assert vals[-1] > 0.0
    assert vals[-1] < 1e-3


def test_b2_rejects_negative():
    with pytest.raises(ValueError):
        b2_form_factor(-0.5)


def test_goe_matrix_is_symmetric_with_expected_moments():
    rng = make_rng(11)
    h = goe_matrix(400, rng)
    assert np.array_equal(h, h.T)
    off = h[np.triu_indices(400, k=1)]
    assert np.var(off) == pytest.approx(0.5, rel=0.05)
    assert np.var(np.diag(h)) == pytest.approx(1.0, rel=0.2)


def test_poisson_spectrum_sorted_unit_spacing():
    rng = make_rng(12)
    levels = poisson_spectrum(1000, rng)
    assert (np.diff(levels) >= 0).all()
    assert 0.0 <= levels[0] and levels[-1] <= 1000.0
    assert np.mean(np.diff(levels)) == pytest.approx(1.0, rel=0.05)
