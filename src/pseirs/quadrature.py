"""Composite Simpson quadrature with automatic panel doubling."""

from __future__ import annotations

from typing import Callable

from .errors import InvalidParameter

# Doubling stops once two successive estimates agree to this relative
# tolerance, keeping quadrature error well below the 1e-4 acceptance
# thresholds of the equivalence checks.
REL_TOL = 1e-6
INITIAL_PANELS = 128
MAX_PANELS = 1 << 21


def composite_simpson(f: Callable[[float], float], a: float, b: float,
                      panels: int) -> float:
    """Integrate f over [a, b] with ``panels`` equal Simpson intervals."""
    if panels < 2 or panels % 2 != 0:
        raise InvalidParameter("panels", panels, "even and >= 2")
    if a == b:
        return 0.0
    h = (b - a) / panels
    total = f(a) + f(b)
    odd = 0.0
    even = 0.0
    for j in range(1, panels):
        x = a + j * h
        if j % 2 == 1:
            odd += f(x)
        else:
            even += f(x)
    return (total + 4.0 * odd + 2.0 * even) * (h / 3.0)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Composite Simpson from INITIAL_PANELS panels, doubling the count until
    two successive estimates differ by at most REL_TOL relative or it reaches
    MAX_PANELS (identically-zero integrands converge immediately to 0.0)."""
    if a == b:
        return 0.0
    prev = composite_simpson(f, a, b, INITIAL_PANELS)
    n = INITIAL_PANELS
    while n < MAX_PANELS:
        n *= 2
        cur = composite_simpson(f, a, b, n)
        if cur == 0.0 and prev == 0.0:
            return 0.0
        if abs(cur - prev) <= REL_TOL * abs(cur):
            return cur
        prev = cur
    return prev
