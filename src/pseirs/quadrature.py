"""Composite Simpson quadrature with automatic panel doubling.

The integrand ``f`` maps a float64 array of nodes to the array of its
values at those nodes.  A level is evaluated in chunks of at most
``CHUNK`` nodes, so its memory does not grow with the panel count.  The
odd and the even sums are taken node by node in increasing order (one
sequential ``np.cumsum`` per chunk, carried from chunk to chunk), so an
estimate has the bits of the plain loop ``odd += f(x)``, ``even += f(x)``
over scalar nodes: ``np.sum`` would add pairwise, and ``sum`` compensates
on Python 3.12 and later.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InvalidParameter, Overflow, QuadratureNotConverged

# Doubling stops once two successive estimates agree to this relative
# tolerance, keeping quadrature error well below the 1e-4 acceptance
# thresholds of the equivalence checks.
REL_TOL = 1e-6
INITIAL_PANELS = 128
MAX_PANELS = 1 << 21
# nodes per call of the integrand; even, so a chunk starts at an even node
CHUNK = 1 << 16


def _running_sum(total: float, values: np.ndarray) -> float:
    """((total + v0) + v1) + ..., in this order."""
    return np.cumsum(np.concatenate(([total], values)))[-1]


def composite_simpson(f: Callable[[np.ndarray], np.ndarray], a: float,
                      b: float, panels: int) -> float:
    """Integrate f over [a, b] with ``panels`` equal Simpson intervals,
    evaluating f at the ``panels + 1`` nodes ``a + j*h`` (the endpoints are
    exactly a and b)."""
    if panels < 2 or panels % 2 != 0:
        raise InvalidParameter("panels", panels, "even and >= 2")
    if a == b:
        return 0.0
    h = (b - a) / panels
    odd = even = 0.0
    # an integrand past float64's range gives an inf or NaN estimate
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, panels + 1, CHUNK):
            c1 = min(c0 + CHUNK, panels + 1)
            x = a + np.arange(c0, c1, dtype=float) * h
            first, last = c0 == 0, c1 == panels + 1
            if first:
                x[0] = a
            if last:
                x[-1] = b
            y = f(x)
            if first:
                fa = y[0]
            if last:
                fb = y[-1]
            # c0 is even: local and global node numbers share their parity, and
            # the endpoints are even nodes
            odd = _running_sum(odd, y[1::2])
            even = _running_sum(even, y[2 if first else 0:-1 if last else None:2])
        return float((fa + fb + 4.0 * odd + 2.0 * even) * (h / 3.0))


def _level(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
           panels: int) -> float:
    """``composite_simpson``'s estimate; Overflow, naming [a, b], if it is
    not finite, where no later level could agree with it."""
    est = composite_simpson(f, a, b, panels)
    if not math.isfinite(est):
        raise Overflow(f"the Simpson estimate over [{a}, {b}] at {panels} "
                       f"panels is {est}; the integrand exceeded float64's range")
    return est


def adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float,
                     b: float) -> float:
    """Composite Simpson from INITIAL_PANELS panels, doubling the count until
    two successive estimates differ by at most REL_TOL relative
    (identically-zero integrands converge immediately to 0.0).  Raises
    Overflow at the first level whose estimate is inf or NaN, and
    QuadratureNotConverged when the estimates still differ at MAX_PANELS
    panels."""
    if a == b:
        return 0.0
    prev = _level(f, a, b, INITIAL_PANELS)
    n = INITIAL_PANELS
    while n < MAX_PANELS:
        n *= 2
        cur = _level(f, a, b, n)
        if cur == 0.0 and prev == 0.0:
            return 0.0
        if abs(cur - prev) <= REL_TOL * abs(cur):
            return cur
        prev = cur
    raise QuadratureNotConverged(
        f"Simpson estimates over [{a}, {b}] still differ by more than "
        f"{REL_TOL} relative at {MAX_PANELS} panels")
