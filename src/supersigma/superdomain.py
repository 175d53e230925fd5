"""Superfunctions on R^{m|n} as finite expansions in odd coordinates.

A superfunction is stored as a map from odd-coordinate multi-indices
(bitmasks over the n odd coordinates) to Grassmann-valued coefficient
fields on the even torus.  All products and derivatives keep track of the
Koszul signs from moving odd coefficients past odd coordinates.

Convention notes (recorded once, used everywhere):

* Expansions are written with the odd coordinates on the LEFT of their
  coefficients, f = sum_gamma eta^gamma f_gamma(x), with strictly
  increasing multi-indices.
* partial_odd is a LEFT derivative: eta^alpha is commuted to the front of
  each monomial and stripped.
* The 1|1 model uses  D = d_eta - eta d_x  and  Q = q (d_eta + eta d_x).
  These are the unique signs (given the left-derivative rule above) for
  which the component action  1/2 Int phi'^2 + psi psi' dx  equals the
  superfield action  -1/2 Int d_x(Phi) D(Phi) [dx deta]  and is invariant
  under the supersymmetry generated by Q.  D and Q anticommute and
  D^2 = -d_x, Q^2 = q-squared terms of +d_x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .grassmann import GradedElement, GrassmannNumber, max_or_nan, monomial_sign, require_odd
from .gridfield import GrassmannField, Grid, _interpolation_phase, spectral_derivative

__all__ = [
    "SuperFunction",
    "Embedding",
    "CoordinateChange",
    "apply_D",
    "apply_Q",
    "pullback_coordinate_change",
    "restrict",
    "D_SIGN",
    "Q_SIGN",
]

# Sign of the eta d_x part of D and of Q (see module docstring).
D_SIGN = -1.0
Q_SIGN = +1.0


class SuperFunction(GradedElement):
    """Function on R^{m|n} x B with grid-sampled coefficient fields.

    ``terms`` maps an odd multi-index to its Grassmann-valued coefficient
    field; the product's Koszul sign comes from ``GradedElement``.
    """

    __slots__ = ("grid", "n_odd", "n_gen")

    _scalars = (int, float, np.ndarray)
    _graded_coefficients = True

    def __init__(self, grid: Grid, n_odd: int, n_gen: int,
                 terms: Mapping[int, GrassmannField] | None = None):
        self.grid = grid
        self.n_odd = n_odd
        self.n_gen = n_gen
        clean: dict[int, GrassmannField] = {}
        if terms:
            limit = 1 << n_odd
            for gamma, f in terms.items():
                if not 0 <= gamma < limit:
                    raise ValueError(f"odd multi-index {gamma} out of range")
                if not f.is_zero():
                    clean[gamma] = f
        self.terms = clean

    @property
    def m(self) -> int:
        return self.grid.ndim

    def coefficient(self, gamma: int) -> GrassmannField:
        return self.terms.get(gamma, GrassmannField.zero(self.grid, self.n_gen))

    @classmethod
    def from_even(cls, grid: Grid, n_odd: int, n_gen: int, values) -> "SuperFunction":
        f = values if isinstance(values, GrassmannField) else GrassmannField.from_array(grid, n_gen, values)
        return cls(grid, n_odd, n_gen, {0: f})

    def _new(self, terms) -> "SuperFunction":
        return SuperFunction(self.grid, self.n_odd, self.n_gen, terms)

    def _coerce(self, other) -> "SuperFunction | None":
        # Numbers, arrays and fields are superfunctions without odd coordinates.
        if not isinstance(other, SuperFunction):
            f = self.coefficient(0)._coerce(other)
            if f is None:
                return None
            other = SuperFunction.from_even(self.grid, self.n_odd, self.n_gen, f)
        if (self.grid, self.n_odd, self.n_gen) != (other.grid, other.n_odd, other.n_gen):
            raise ValueError("superfunctions live on different superdomains")
        return other

    def product_coefficient(self, other: "SuperFunction", gamma: int) -> GrassmannField:
        """The eta^gamma coefficient of ``self * other``, bit for bit, without
        forming the product's other coefficients.

        Each pair of terms whose monomials make eta^gamma is multiplied as two
        single-term superfunctions, so the graded product supplies the sign,
        and the pairs are summed in the order the product sums them.
        """
        out = GrassmannField.zero(self.grid, self.n_gen)
        for ma, ca in self.terms.items():
            mb = gamma ^ ma
            if ma & mb or mb not in other.terms:
                continue
            pair = self._new({ma: ca}) * other._new({mb: other.terms[mb]})
            out = out + pair.coefficient(gamma)
        return out

    def mul_odd_coordinate(self, alpha: int) -> "SuperFunction":
        """Left multiplication by the odd coordinate eta^alpha (1-based)."""
        bit = 1 << (alpha - 1)
        out: dict[int, GrassmannField] = {}
        for gamma, f in self.terms.items():
            s = monomial_sign(bit, gamma)
            if s:
                out[bit | gamma] = f * float(s)
        return SuperFunction(self.grid, self.n_odd, self.n_gen, out)

    # -- derivatives -----------------------------------------------------------

    def partial_even(self, a: int) -> "SuperFunction":
        """Spectral derivative along even axis ``a`` (1-based), read off each
        coefficient's kept gradient (``GrassmannField.gradient``)."""
        if not 1 <= a <= self.m:
            raise ValueError(f"even axis {a} out of range 1..{self.m}")
        return SuperFunction(self.grid, self.n_odd, self.n_gen,
                             {g: f.gradient()[a - 1] for g, f in self.terms.items()})

    def partial_odd(self, alpha: int) -> "SuperFunction":
        """Left derivative with respect to eta^alpha (1-based)."""
        if not 1 <= alpha <= self.n_odd:
            raise ValueError(f"odd coordinate {alpha} out of range 1..{self.n_odd}")
        bit = 1 << (alpha - 1)
        out: dict[int, GrassmannField] = {}
        for gamma, f in self.terms.items():
            if gamma & bit:
                below = (gamma & (bit - 1)).bit_count()
                sign = -1.0 if below & 1 else 1.0
                out[gamma ^ bit] = f * sign
        return SuperFunction(self.grid, self.n_odd, self.n_gen, out)

    # -- inspection --------------------------------------------------------------

    def max_abs(self):
        return max_or_nan(f.max_abs() for f in self.terms.values())

    def __repr__(self):
        return (f"SuperFunction(m={self.m}, n={self.n_odd}, "
                f"slots={sorted(self.terms)})")


def _apply_D(f: SuperFunction, dfdx: SuperFunction) -> SuperFunction:
    """``apply_D`` for a caller that already holds d_x f = f.partial_even(1)."""
    if f.m != 1 or f.n_odd != 1:
        raise ValueError("apply_D is defined on R^{1|1}")
    return f.partial_odd(1) + dfdx.mul_odd_coordinate(1) * D_SIGN


def _apply_Q(f: SuperFunction, dfdx: SuperFunction, q: GrassmannNumber) -> SuperFunction:
    """``apply_Q`` for a caller that already holds d_x f = f.partial_even(1)."""
    if f.m != 1 or f.n_odd != 1:
        raise ValueError("apply_Q is defined on R^{1|1}")
    require_odd(q, "supersymmetry parameter q")
    return q * (f.partial_odd(1) + dfdx.mul_odd_coordinate(1) * Q_SIGN)


def apply_D(f: SuperFunction) -> SuperFunction:
    """D f = d_eta f - eta d_x f on R^{1|1} (sign convention: module docstring)."""
    return _apply_D(f, f.partial_even(1))


def apply_Q(f: SuperFunction, q: GrassmannNumber) -> SuperFunction:
    """Q f = q (d_eta f + eta d_x f) on R^{1|1} for an odd parameter q."""
    return _apply_Q(f, f.partial_even(1), q)


@dataclass
class Embedding:
    """Embedding of the underlying even manifold: i#x = x, i#eta^alpha = xi_alpha."""

    xi: Sequence[GrassmannField]

    def __post_init__(self):
        for x in self.xi:
            require_odd(x, "embedding components xi_alpha")


def restrict(f: SuperFunction, i: Embedding) -> GrassmannField:
    """i#f = sum_gamma xi^gamma f_gamma with xi factors in increasing order."""
    if len(i.xi) != f.n_odd:
        raise ValueError("embedding has wrong number of odd components")
    out = GrassmannField.zero(f.grid, f.n_gen)
    for gamma, coeff in f.terms.items():
        term = coeff
        # Multiply xi factors from the right inward so the final order is
        # xi_{a1} xi_{a2} ... coeff with a1 < a2 < ...
        for alpha in reversed(range(f.n_odd)):
            if gamma >> alpha & 1:
                term = i.xi[alpha] * term
        out = out + term
    return out


@dataclass
class CoordinateChange:
    """Coordinate change on R^{1|1}: x = g0(xt) + eta_t g1(xt), eta = gamma0(xt) + eta_t gamma1(xt).

    ``g0`` maps grid points to body values (same grid, orientation
    preserving); ``g1`` and ``gamma0`` are odd fields, ``gamma1`` is even
    with invertible body.
    """

    g0: np.ndarray
    g1: GrassmannField | None = None
    gamma0: GrassmannField | None = None
    gamma1: GrassmannField | None = None

    def validate(self, grid: Grid) -> None:
        x = grid.axis_points(0)
        periodic_part = np.asarray(self.g0, dtype=float) - x
        slope = 1.0 + spectral_derivative(periodic_part, grid, 0)
        if np.any(slope <= 0.0):
            raise ValueError("body map g0 is not an orientation-preserving diffeomorphism")


def pullback_coordinate_change(f: SuperFunction, change: CoordinateChange) -> SuperFunction:
    """Express a function on R^{1|1} in the new coordinates (xt, eta_t).

    Nilpotent Taylor expansion about the body map:

        f0(g0 + eta_t g1) + (gamma0 + eta_t gamma1) f1(g0 + eta_t g1)
        = [f0(g0) + gamma0 f1(g0)]
        + eta_t [g1 f0'(g0) + gamma1 f1(g0) - gamma0 g1 f1'(g0)]
    """
    if f.m != 1 or f.n_odd != 1:
        raise ValueError("coordinate-change pullback is defined on R^{1|1}")
    grid, n_gen = f.grid, f.n_gen
    change.validate(grid)
    g0 = np.asarray(change.g0, dtype=float)

    f0, f1 = f.coefficient(0), f.coefficient(1)
    # Every coefficient is evaluated at the same points: one phase matrix.
    phase = _interpolation_phase(grid, g0)
    f0_at = f0._compose_phase(phase)
    f1_at = f1._compose_phase(phase)

    slot0 = f0_at
    slot1 = GrassmannField.zero(grid, n_gen)
    if change.gamma0 is not None and not change.gamma0.is_zero():
        slot0 = slot0 + change.gamma0 * f1_at
    if change.g1 is not None and not change.g1.is_zero():
        slot1 = slot1 + change.g1 * f0.derivative(0)._compose_phase(phase)
        if change.gamma0 is not None and not change.gamma0.is_zero():
            slot1 = slot1 - change.gamma0 * change.g1 * f1.derivative(0)._compose_phase(phase)
    gamma1 = change.gamma1
    if gamma1 is None:
        gamma1 = GrassmannField.from_array(grid, n_gen, np.ones(grid.shape))
    slot1 = slot1 + gamma1 * f1_at
    return SuperFunction(grid, 1, n_gen, {0: slot0, 1: slot1})
