import math
import warnings

import pytest

from omegastar.constants import (
    GOLDEN_RATIO,
    GRH_C,
    GRH_U,
    apr_conjecture_bound,
    f_theta,
    grh_residuals,
    maximize_f_theta,
)


def _first_form(theta: float, t: float) -> float:
    return (theta * math.log(t / theta) - (t - theta) * math.log(1 - theta / t)) / (t + 1 - theta)


class TestFTheta:
    def test_zero_at_left_endpoint(self):
        for theta in (0.1, 0.4736, 0.9):
            assert f_theta(theta, theta) == 0.0

    def test_reported_maximum_value(self):
        assert abs(f_theta(0.4736, 1.2694) - 0.4669) <= 5e-4

    def test_double_theta_closed_form(self):
        for theta in (0.25, 0.4736, 0.9):
            assert abs(f_theta(theta, 2 * theta) - (2 * theta / (theta + 1)) * math.log(2)) <= 1e-12

    def test_two_algebraic_forms_agree(self):
        for i in range(1, 10):
            theta = i / 10
            t = theta + 1e-6
            while t <= 10.0:
                assert abs(f_theta(theta, t) - _first_form(theta, t)) <= 1e-12
                t += 0.0097

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_theta(0.0, 1.0)
        with pytest.raises(ValueError):
            f_theta(0.5, 0.4)


class TestMaximize:
    def test_unconditional_point(self):
        opt = maximize_f_theta(0.4736)
        assert abs(opt.u_star - 1.2694) <= 1e-3
        assert abs(opt.f_max - 0.4669) <= 5e-4
        assert 0.6736 < opt.f_over_log2 < 0.6738

    def test_max_dominates_double_theta(self):
        for theta in (0.1, 0.3, 0.4736, 0.5, 0.7, 0.9):
            opt = maximize_f_theta(theta)
            assert opt.f_max >= f_theta(theta, 2 * theta) - 1e-15

    def test_stationary_at_maximum(self):
        opt = maximize_f_theta(0.4736)
        h = 1e-5
        central = (f_theta(0.4736, opt.u_star + h) - f_theta(0.4736, opt.u_star - h)) / (2 * h)
        assert abs(central) <= 1e-6

    def test_recovers_golden_parameters_at_half(self):
        # theta = 1/2 is the GRH regime: the maximizer is (3+sqrt 5)/4 and the
        # maximum is log((1+sqrt 5)/2)
        opt = maximize_f_theta(0.5)
        assert abs(opt.u_star - GRH_U) <= 1e-6
        assert abs(opt.f_max - math.log(GOLDEN_RATIO)) <= 1e-9

    def test_monotone_in_theta_reported(self):
        thetas = [i / 20 for i in range(2, 19)]
        values = [maximize_f_theta(th).f_max for th in thetas]
        violations = [th for th, a, b in zip(thetas[1:], values, values[1:]) if b < a]
        if violations:  # diagnosed, not asserted: reported on violation
            warnings.warn(f"f_max not monotone at theta = {violations}")
        assert len(values) == len(thetas)

    def test_domain(self):
        with pytest.raises(ValueError):
            maximize_f_theta(0.0)
        with pytest.raises(ValueError):
            maximize_f_theta(1.0)


class TestGrhConstants:
    def test_golden_identities(self):
        r = grh_residuals()
        assert r["ratio_identity"] <= 1e-12
        assert r["sqrt_identity"] <= 1e-12
        assert r["half_sum"] <= 1e-12

    def test_C_value(self):
        assert abs(GRH_C - (GRH_U + 0.5) * math.log(GOLDEN_RATIO)) <= 1e-12
        assert grh_residuals()["C_first_form"] <= 1e-12
        assert abs(GRH_C - 0.8705) <= 1e-4

    def test_exponent_constant_is_log_golden(self):
        assert abs(math.log(GOLDEN_RATIO) - 0.48121182505960347) <= 1e-15

    def test_inverse_golden_squared_is_inverse_2u(self):
        assert abs(1.0 / (2 * GRH_U) - 1.0 / GOLDEN_RATIO**2) <= 1e-15


class TestAprBound:
    def test_limit_value(self):
        assert apr_conjecture_bound(1.0) == math.log(2)

    def test_unconditional_theta(self):
        val = apr_conjecture_bound(0.4736)
        assert abs(val - 0.4455408587312569) <= 1e-12
        assert val < maximize_f_theta(0.4736).f_max

    def test_half(self):
        assert abs(apr_conjecture_bound(0.5) - (2.0 / 3.0) * math.log(2)) <= 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            apr_conjecture_bound(0.0)
        with pytest.raises(ValueError):
            apr_conjecture_bound(1.5)
