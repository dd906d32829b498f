import math

import pytest

from pseirs import quadrature
from pseirs.errors import InvalidParameter, QuadratureNotConverged
from pseirs.quadrature import adaptive_simpson, composite_simpson


def test_simpson_exact_on_cubics():
    # Simpson integrates cubics exactly; int_0^2 (x^3 - x + 1) dx = 4
    got = composite_simpson(lambda x: x ** 3 - x + 1.0, 0.0, 2.0, 4)
    assert got == pytest.approx(4.0, rel=1e-14)


def test_simpson_panel_validation():
    with pytest.raises(InvalidParameter):
        composite_simpson(lambda x: x, 0.0, 1.0, 3)


def test_adaptive_converges_on_exponential():
    got = adaptive_simpson(math.exp, 0.0, 1.0)
    assert got == pytest.approx(math.e - 1.0, rel=1e-10)


def test_adaptive_zero_integrand_is_exact_zero():
    assert adaptive_simpson(lambda x: 0.0, -3.0, 0.0) == 0.0


def test_empty_interval():
    assert adaptive_simpson(math.exp, 2.0, 2.0) == 0.0


def test_adaptive_handles_slow_integrand():
    # exp(mu*x) with tiny mu: nearly constant, converges immediately
    got = adaptive_simpson(lambda x: math.exp(1e-12 * x), -0.15, 0.0)
    assert got == pytest.approx(0.15, rel=1e-12)


def test_adaptive_raises_when_the_panel_cap_is_reached(monkeypatch):
    # 128 to 1024 panels cannot resolve 1600 oscillations, so successive
    # estimates keep disagreeing until the cap
    monkeypatch.setattr(quadrature, "MAX_PANELS", 1024)
    with pytest.raises(QuadratureNotConverged):
        adaptive_simpson(lambda x: math.sin(1e4 * x), 0.0, 1.0)
