"""The scalar composite and adaptive Simpson rules as they were before the
package's quadrature took an array of nodes per level, kept unchanged as
the reference: one call of ``f`` per node, sums taken node by node.  The
array rules must give the same bits."""

from typing import Callable

from pseirs.errors import InvalidParameter, QuadratureNotConverged
from pseirs.quadrature import INITIAL_PANELS, MAX_PANELS, REL_TOL


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
    two successive estimates differ by at most REL_TOL relative
    (identically-zero integrands converge immediately to 0.0).  Raises
    QuadratureNotConverged when they still differ at MAX_PANELS panels."""
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
    raise QuadratureNotConverged(
        f"Simpson estimates over [{a}, {b}] still differ by more than "
        f"{REL_TOL} relative at {MAX_PANELS} panels")
