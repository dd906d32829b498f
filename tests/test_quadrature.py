import math
import tracemalloc

import numpy as np
import pytest

from pseirs import quadrature
from pseirs.errors import InvalidParameter, Overflow, QuadratureNotConverged
from pseirs.quadrature import adaptive_simpson, composite_simpson

import reference_quadrature


def test_simpson_exact_on_cubics():
    # Simpson integrates cubics exactly; int_0^2 (x^3 - x + 1) dx = 4
    got = composite_simpson(lambda x: x ** 3 - x + 1.0, 0.0, 2.0, 4)
    assert got == pytest.approx(4.0, rel=1e-14)


def test_simpson_panel_validation():
    with pytest.raises(InvalidParameter):
        composite_simpson(lambda x: x, 0.0, 1.0, 3)


def test_adaptive_converges_on_exponential():
    got = adaptive_simpson(np.exp, 0.0, 1.0)
    assert got == pytest.approx(math.e - 1.0, rel=1e-10)


def test_adaptive_zero_integrand_is_exact_zero():
    assert adaptive_simpson(np.zeros_like, -3.0, 0.0) == 0.0


def test_empty_interval():
    assert adaptive_simpson(np.exp, 2.0, 2.0) == 0.0


def test_adaptive_handles_slow_integrand():
    # exp(mu*x) with tiny mu: nearly constant, converges immediately
    got = adaptive_simpson(lambda x: np.exp(1e-12 * x), -0.15, 0.0)
    assert got == pytest.approx(0.15, rel=1e-12)


def test_adaptive_raises_when_the_panel_cap_is_reached(monkeypatch):
    # 128 to 1024 panels cannot resolve 1600 oscillations, so successive
    # estimates keep disagreeing until the cap
    monkeypatch.setattr(quadrature, "MAX_PANELS", 1024)
    with pytest.raises(QuadratureNotConverged):
        adaptive_simpson(lambda x: np.sin(1e4 * x), 0.0, 1.0)


def test_unconverged_integrand_runs_in_bounded_memory():
    # every level up to the real MAX_PANELS = 2^21 is evaluated, in chunks:
    # one unchunked level of this integrand alone would hold 64 MB
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureNotConverged):
            adaptive_simpson(lambda x: np.sin(1e9 * math.pi * x), 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_one_composite_call_of_panels_plus_one_nodes_per_level(monkeypatch):
    # the benchmark's tracer counts panels + 1 integrand evaluations per
    # composite_simpson call, and one call per doubling level
    monkeypatch.setattr(quadrature, "MAX_PANELS", 1 << 18)
    calls = []
    composite = quadrature.composite_simpson

    def recording(f, a, b, panels):
        def counted(x):
            calls[-1][1].append(len(x))
            return f(x)
        calls.append((panels, []))
        return composite(counted, a, b, panels)

    monkeypatch.setattr(quadrature, "composite_simpson", recording)
    with pytest.raises(QuadratureNotConverged):
        adaptive_simpson(lambda x: np.sin(1e9 * math.pi * x), 0.0, 1.0)
    assert [panels for panels, _ in calls] == [128 << k for k in range(12)]
    for panels, chunks in calls:
        assert sum(chunks) == panels + 1
        assert max(chunks) <= quadrature.CHUNK


def _inf_at_a_256_panel_node(x):
    # 129/256 is a node of 256 panels over [0, 1], not of 128
    return np.where(x == 129 / 256, math.inf, 1.0)


@pytest.mark.parametrize("f, levels", [
    (lambda x: np.full_like(x, math.inf), 1),
    (_inf_at_a_256_panel_node, 2),
], ids=["inf_everywhere", "inf_at_one_node"])
def test_a_non_finite_estimate_is_overflow_at_its_level(monkeypatch, f,
                                                        levels):
    # the first non-finite estimate ends the doubling: two infs never
    # agree, and inf after a finite estimate would pass the convergence
    # test, since inf <= REL_TOL*inf
    calls = []
    composite = quadrature.composite_simpson

    def recording(f, a, b, panels):
        calls.append(panels)
        return composite(f, a, b, panels)

    monkeypatch.setattr(quadrature, "composite_simpson", recording)
    panels = 128 << (levels - 1)
    with pytest.raises(Overflow, match=rf"over \[0.0, 1.0\] at {panels} panels is inf"):
        adaptive_simpson(f, 0.0, 1.0)
    assert calls == [128 << k for k in range(levels)]


def _cubic(x):
    return -0.0 if x < 0.5 else x * x * x - 1.7 * x + 1.0 / 3.0


# a + panels*h misses b by rounding on [-1.82, 0.57]
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.0, 3.0), (-30.0, 0.0),
                                  (0.15, -29.85), (-1.82, 0.57)])
@pytest.mark.parametrize("panels", [2, 128, quadrature.CHUNK,
                                    quadrature.CHUNK + 2, 3 * quadrature.CHUNK])
def test_composite_bits_match_scalar_reference(a, b, panels):
    # levels of one chunk, of a chunk and one or three nodes, and of four
    # chunks; -0.0 values keep no sign through the sums started at 0.0
    def cubic(x):
        return np.where(x < 0.5, -0.0, x * x * x - 1.7 * x + 1.0 / 3.0)

    got = composite_simpson(cubic, a, b, panels)
    want = reference_quadrature.composite_simpson(_cubic, a, b, panels)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
