"""Test-only helpers shared by several test modules."""

import math


def integer_coefficients_start(s, start: int = 0) -> bool:
    """True when every coefficient of the RationalSeries s from `start` on
    is a positive integer."""
    return all(c.denominator == 1 and c > 0 for c in s.coeffs[start:])


def newton_nome(x, par):
    """dynamics.nome_from_action by Newton alone, uncached, as it was before
    any bisection: it raised where 200 steps did not meet the step test,
    which happens where Newton alternates between two roundings of the root.
    It defines the formerly stalled solves.  Wherever it answers, the
    bracketed loop of dynamics._action_orbit answers with the same bits, as
    its revisit rule fires only on such a 2-cycle."""
    from pendnf import dynamics as dyn

    if not math.isfinite(x):
        raise ValueError(f"action x = p q must be finite, got {x}")
    target = x / par.action_scale
    if target == 0.0:
        return 0.0
    low, high = dyn._action_range()
    if not low <= target <= high:
        raise ValueError(f"action {x} is outside the invertible range (|x'| <= {dyn._NOME_BOUND})")
    lo, hi = (0.0, dyn._NOME_BOUND) if target > 0.0 else (-dyn._NOME_BOUND, 0.0)
    y = min(max(target, lo), hi)
    for _ in range(200):
        a2, slope = dyn._rescale_sq(y)
        val = y * a2 - target
        if val > 0.0:
            hi = y
        else:
            lo = y
        y_new = y - val / slope
        if not lo <= y_new <= hi:
            y_new = 0.5 * (lo + hi)
        if abs(y_new - y) <= 1e-14 * max(1.0, abs(y_new)):
            return y_new
        y = y_new
    raise RuntimeError("nome inversion did not converge")
