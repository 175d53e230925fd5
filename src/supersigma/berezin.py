"""Berezin integration: odd top-coefficient extraction plus periodic quadrature.

The odd integral picks out the coefficient of eta^1 eta^2 ... eta^n (written
in increasing order, with sign +1), and the even integral is the periodic
trapezoid rule, which is spectrally exact for trigonometric polynomials
below the Nyquist limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grassmann import GrassmannNumber
from .gridfield import Grid
from .superdomain import SuperFunction

__all__ = ["BerezinDomain", "berezin_integrate"]


@dataclass
class BerezinDomain:
    """Torus [0,P_1) x ... x [0,P_m) with n odd directions.

    Integration is in coordinates adapted to the zero embedding (xi = 0),
    where the odd integral is the plain top coefficient.  Independence of
    the embedding is checked by pulling the integrand back through the
    coordinate change eta = xi + eta~ (``toy_model.toy_embedding_residual``).
    """

    grid: Grid
    n_odd: int

    def top_mask(self) -> int:
        return (1 << self.n_odd) - 1


def berezin_integrate(f: SuperFunction, dom: BerezinDomain) -> GrassmannNumber:
    """Integral over the superdomain: quadrature of the top odd coefficient."""
    if f.grid != dom.grid or f.n_odd != dom.n_odd:
        raise ValueError("superfunction does not live on the integration domain")
    return f.coefficient(dom.top_mask()).integral()
