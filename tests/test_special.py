import math

import numpy as np
import pytest
from scipy.special import gammaincc

from klchernoff.special import log_upper_gamma, log_upper_gamma_scaled


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 100.0, 500.0])
def test_matches_scipy_in_safe_range(a):
    # scipy's regularized form is the oracle wherever it does not underflow
    for z in np.geomspace(a / 20.0, a * 5.0, 25):
        q_ref = gammaincc(a, z)
        if q_ref < 1e-290:
            continue
        assert math.exp(log_upper_gamma(a, float(z)) - math.lgamma(a)) == pytest.approx(q_ref, rel=1e-12)
        assert log_upper_gamma(a, float(z)) == pytest.approx(
            math.log(q_ref) + math.lgamma(a), rel=1e-11, abs=1e-11
        )


def test_closed_forms():
    for t in (0.1, 1.0, 4.0, 30.0):
        assert log_upper_gamma(1.0, t) == pytest.approx(-t, rel=1e-13)
        assert log_upper_gamma(2.0, t) == pytest.approx(math.log1p(t) - t, rel=1e-13)


def test_log_domain_beyond_underflow():
    # Q(1001, 1e4) underflows linear double precision but has a finite log
    val = log_upper_gamma(1001.0, 10000.0) - math.lgamma(1001.0)
    assert val < -700.0
    assert math.isfinite(val)


def test_recurrence_identity():
    # Gamma(a+1, z) = a Gamma(a, z) + z^a e^(-z)
    for a, z in [(3.5, 1.0), (7.0, 9.5), (40.0, 55.0), (200.0, 180.0)]:
        lhs = log_upper_gamma(a + 1.0, z)
        rhs = np.logaddexp(math.log(a) + log_upper_gamma(a, z), a * math.log(z) - z)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("a", [0.5, 2.5, 10.0, 16.0, 100.0, 500.0])
def test_scaled_form_matches_unscaled(a):
    # at moderate a the unscaled form cancels little, so it is the reference;
    # both regimes and both sides of the Stirling switch at a = 16 are covered
    for z in np.geomspace(a / 20.0, a * 5.0, 25):
        z = float(z)
        unscaled = log_upper_gamma(a, z) + z - a * math.log(z)
        assert log_upper_gamma_scaled(a, z) == pytest.approx(unscaled, rel=1e-12, abs=1e-12)


def test_boundaries_and_errors():
    assert log_upper_gamma(3.0, 0.0) == math.lgamma(3.0)
    with pytest.raises(ValueError):
        log_upper_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        log_upper_gamma(1.0, -0.5)
    with pytest.raises(ValueError):
        log_upper_gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        log_upper_gamma_scaled(3.0, 0.0)
    with pytest.raises(ValueError):
        log_upper_gamma_scaled(0.0, 1.0)
