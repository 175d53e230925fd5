"""The 1|1-dimensional supersymmetric sigma model on the circle.

Both formulations of the action are implemented:

* component form   A(phi, psi) = 1/2 Int phi'^2 + psi psi' dx
* superfield form  A(Phi)      = -1/2 Int d_x(Phi) D(Phi) [dx deta]

with D = d_eta - eta d_x (see superdomain).  The supersymmetry variation is

    delta phi = q psi,   delta psi = -q d_x phi,

which is exactly the restriction of Q Phi and Q D Phi along the zero
embedding, and leaves both actions invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .berezin import berezin_integrate
from .grassmann import GrassmannNumber, fresh_generators, require_even, require_odd
from .gridfield import GrassmannField, Grid
from .superdomain import (
    CoordinateChange,
    Embedding,
    SuperFunction,
    _apply_D,
    _apply_Q,
    pullback_coordinate_change,
    restrict,
)

__all__ = [
    "ToyFields",
    "superfield_from_fields",
    "toy_action_component",
    "toy_action_superfield",
    "toy_susy",
    "toy_susy_geometric",
    "toy_invariance_residual",
    "toy_embedding_residual",
]


@dataclass
class ToyFields:
    """Circle-valued matter content: even phi and odd psi."""

    phi: GrassmannField
    psi: GrassmannField

    def __post_init__(self):
        require_even(self.phi, "phi")
        require_odd(self.psi, "psi")
        if self.phi.grid != self.psi.grid or self.phi.n_gen != self.psi.n_gen:
            raise ValueError("phi and psi must share grid and algebra")

    @property
    def grid(self) -> Grid:
        return self.phi.grid

    @property
    def n_gen(self) -> int:
        return self.phi.n_gen

    def __add__(self, other: "ToyFields") -> "ToyFields":
        return ToyFields(self.phi + other.phi, self.psi + other.psi)


def superfield_from_fields(f: ToyFields) -> SuperFunction:
    """Phi = phi + eta psi."""
    return SuperFunction(f.grid, 1, f.n_gen, {0: f.phi, 1: f.psi})


def toy_action_component(f: ToyFields) -> GrassmannNumber:
    """A = 1/2 Int phi'^2 + psi psi' dx over the circle."""
    (dphi,), (dpsi,) = f.phi.gradient(), f.psi.gradient()
    density = dphi * dphi + f.psi * dpsi
    return density.integral() * 0.5


def _superfield_integrand(Phi: SuperFunction) -> SuperFunction:
    """-1/2 d_x(Phi) D(Phi), the integrand of the superfield action."""
    dPhi = Phi.partial_even(1)
    return dPhi * _apply_D(Phi, dPhi) * (-0.5)


def toy_action_superfield(Phi: SuperFunction) -> GrassmannNumber:
    """A = -1/2 Int d_x(Phi) D(Phi) [dx deta]; equals the component action."""
    if Phi.m != 1 or Phi.n_odd != 1:
        raise ValueError("toy superfield action is defined on R^{1|1}")
    return berezin_integrate(_superfield_integrand(Phi))


def toy_susy(f: ToyFields, q: GrassmannNumber) -> ToyFields:
    """Supersymmetry variation (delta phi, delta psi) = (q psi, -q phi')."""
    require_odd(q, "supersymmetry parameter q")
    return ToyFields(q * f.psi, -(q * f.phi.gradient()[0]))


def toy_susy_geometric(f: ToyFields, q: GrassmannNumber) -> ToyFields:
    """The same variation read off geometrically: (i#QPhi, i#QDPhi) at xi=0."""
    Phi = superfield_from_fields(f)
    dPhi = Phi.partial_even(1)
    zero_embed = Embedding(xi=[GrassmannField.zero(f.grid, f.n_gen)])
    dphi = restrict(_apply_Q(Phi, dPhi, q), zero_embed)
    # d_x D Phi = D d_x Phi, and D reads only the eta-free slot of
    # d_x d_x Phi: phi'' is the one new derivative.
    ddPhi = SuperFunction.from_even(f.grid, 1, f.n_gen, dPhi.coefficient(0).derivative(0))
    dpsi = restrict(_apply_Q(_apply_D(Phi, dPhi), _apply_D(dPhi, ddPhi), q), zero_embed)
    return ToyFields(dphi, dpsi)


def toy_invariance_residual(f: ToyFields, q: GrassmannNumber):
    """Max coefficient of the first variation of A under ``toy_susy``, one
    per fixture of stacked fields: A(f + delta f) minus its part free of q's
    generators, which must be fresh to phi and psi (ValueError otherwise), so
    that part is A(f) bit for bit.  Exact for a monomial q (q^2 = 0); no
    finite-difference step is involved.
    """
    bits = fresh_generators([q], [f.phi, f.psi], "the supersymmetry parameter q")
    a1 = toy_action_component(f + toy_susy(f, q))
    return a1.max_abs_diff(a1.free_of(bits))


def toy_embedding_residual(integrand: SuperFunction, xi: GrassmannField):
    """Max coefficient difference, one per fixture of a stacked ``integrand``
    (the superfield integrand -1/2 d_x(Phi) D(Phi)), between its Berezin
    integral and that of its pullback through eta = xi + eta~ (unit Berezinian).

    Not a test of embedding independence: xi reaches only the eta~-free slot,
    which the Berezin integral does not read, so the residual is the same for
    every xi.  It checks the pullback's eta~ slot, the trigonometric
    interpolant of the top coefficient at the grid points, to round-off.
    """
    require_odd(xi, "embedding component xi")
    change = CoordinateChange(g0=integrand.grid.axis_points(0), g1=None, gamma0=xi, gamma1=None)
    a1 = berezin_integrate(pullback_coordinate_change(integrand, change))
    return berezin_integrate(integrand).max_abs_diff(a1)
