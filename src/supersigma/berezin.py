"""Berezin integration: odd top-coefficient extraction plus periodic quadrature.

The odd integral picks out the coefficient of eta^1 eta^2 ... eta^n (written
in increasing order, with sign +1), and the even integral is the periodic
trapezoid rule, which is spectrally exact for trigonometric polynomials
below the Nyquist limit.
"""

from __future__ import annotations

from .grassmann import GrassmannNumber
from .superdomain import SuperFunction

__all__ = ["berezin_integrate"]


def berezin_integrate(f: SuperFunction) -> GrassmannNumber:
    """Integral of ``f`` over its torus and all of its odd directions.

    Integration is in coordinates adapted to the zero embedding (xi = 0),
    where the odd integral is the plain top coefficient.
    """
    return f.coefficient((1 << f.n_odd) - 1).integral()
