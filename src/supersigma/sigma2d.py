"""Two-dimensional supersymmetric sigma model on the flat torus.

Implements the five-term component action on a flat target, its superfield
counterpart on R^{2|2} (flat model, vanishing gravitino), the Dirac
operator, matter supersymmetry variations, energy-momentum tensor, super
current, and the harmonic-map gradient flow into a flat target.

Superspace conventions (fixed here, verified by the reduction identity):

* D_alpha = d_{eta^alpha} + (ghat^a)_{alpha beta} eta^beta d_{x^a} with
  ghat^1 = gamma^2 and ghat^2 = -gamma^1 (the Clifford matrices rotated by
  the pairing matrix C = gamma^1 gamma^2).
* A(Phi) = norm * Int eps^{alpha beta} <D_alpha Phi, D_beta Phi> [d^2x d^2eta]
  with eps^{12} = +1; the normalization (default -1/2) makes A(Phi) equal
  the component action exactly at chi = 0.
* Component embedding: Phi = phi + eta^mu psi_mu + eta^1 eta^2 F with F the
  same field that enters the -1/4 <F,F> term of the component action.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .grassmann import GrassmannNumber, fresh_generators, max_or_nan, require_even, require_odd
from .gridfield import GrassmannField, Grid, derivative_wavenumbers, spectral_derivative
from .spin_surface import (
    GAMMA,
    GAMMA_PRODUCTS,
    GravitinoField,
    SpinorField,
    SurfaceGeometry,
    clifford,
    pairing,
)
from .superdomain import SuperFunction

__all__ = [
    "ComponentFields",
    "ActionCoefficients",
    "UnsupportedRegimeError",
    "CalibrationError",
    "FlowResult",
    "dirac",
    "action_density",
    "action_component",
    "action_superfield_flat",
    "superfield_from_components",
    "susy_fields",
    "susy_gravitino_variation",
    "susy_invariance_residual",
    "calibrate_conventions",
    "energy_momentum",
    "super_current",
    "harmonic_flow",
    "t_zz",
    "d_zbar",
    "current_spin32",
]


class UnsupportedRegimeError(ValueError):
    """The requested operation is outside the implemented regime."""


class CalibrationError(RuntimeError):
    """No sign assignment in the declared search space meets the tolerance."""


@dataclass
class ComponentFields:
    """Matter content (phi, psi, F) with an optional winding part of phi.

    phi[t] holds the periodic part of the t-th target coordinate; the full
    map is phi[t] + sum_k winding[t, k] x^k, so torus-to-torus maps of
    nonzero degree are representable while all stored fields stay periodic.

    An instance is a value: the gradients of phi are computed on first use
    and kept, so never mutate its fields (build a new instance with
    ``dataclasses.replace`` or ``+`` instead).
    """

    phi: list[GrassmannField]
    psi: list[SpinorField]
    F: list[GrassmannField]
    winding: np.ndarray | None = None

    def __post_init__(self):
        d = len(self.phi)
        if len(self.psi) != d or len(self.F) != d:
            raise ValueError("phi, psi, F must have the same target dimension")
        for p in self.phi:
            require_even(p, "phi")
        for s in self.psi:
            require_odd(s, "psi")
        for f in self.F:
            require_even(f, "F")
        if self.winding is None:
            self.winding = np.zeros((d, 2))
        else:
            self.winding = np.asarray(self.winding, dtype=float)
            if self.winding.shape != (d, 2):
                raise ValueError("winding must have shape (target dim, 2)")

    @property
    def dim(self) -> int:
        return len(self.phi)

    @property
    def grid(self) -> Grid:
        return self.phi[0].grid

    @property
    def n_gen(self) -> int:
        return self.phi[0].n_gen

    @classmethod
    def zero(cls, grid: Grid, n_gen: int, dim: int) -> "ComponentFields":
        return cls(
            phi=[GrassmannField.zero(grid, n_gen) for _ in range(dim)],
            psi=[SpinorField.zero(grid, n_gen) for _ in range(dim)],
            F=[GrassmannField.zero(grid, n_gen) for _ in range(dim)],
        )

    @cached_property
    def _phi_gradients(self) -> list[tuple[GrassmannField, GrassmannField]]:
        """(d_0, d_1) of every full (winding-corrected) coordinate."""
        out = []
        for t, p in enumerate(self.phi):
            grad = []
            for k in range(2):
                d = p.derivative(k)
                w = float(self.winding[t, k])
                grad.append(d + w if w else d)
            out.append(tuple(grad))
        return out

    def phi_derivative(self, t: int, k: int) -> GrassmannField:
        """d_k of the full (winding-corrected) t-th coordinate."""
        return self._phi_gradients[t][k]

    def __add__(self, other: "ComponentFields") -> "ComponentFields":
        return ComponentFields(
            phi=[a + b for a, b in zip(self.phi, other.phi)],
            psi=[a + b for a, b in zip(self.psi, other.psi)],
            F=[a + b for a, b in zip(self.F, other.F)],
            winding=self.winding + other.winding,
        )


@dataclass(frozen=True)
class ActionCoefficients:
    """Term normalizations of the component action and variation signs.

    c1..c5 multiply, in order: the Dirichlet term, the Dirac term, <F,F>,
    the gravitino-matter coupling and the gravitino-squared coupling.  s1,
    s2 are the signs of the two matter supersymmetry variations, and
    superfield_normalization is the overall factor in front of the
    superfield action.  The defaults are the calibrated point
    (``calibrate_conventions``; c5 = -1/2), at which the action is
    supersymmetric.
    """

    c1: float = 1.0
    c2: float = 1.0
    c3: float = -0.25
    c4: float = 2.0
    c5: float = -0.5
    s1: float = 1.0
    s2: float = 1.0
    superfield_normalization: float = -0.5

    def to_dict(self) -> dict:
        return {
            "c1": self.c1, "c2": self.c2, "c3": self.c3,
            "c4": self.c4, "c5": self.c5,
            "s1": self.s1, "s2": self.s2,
            "superfield_normalization": self.superfield_normalization,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ActionCoefficients":
        if "c6" in d:
            raise ValueError("convention 'c6' was removed: the target-curvature term "
                             "is gone from the flat-target action; delete the key")
        known = [f.name for f in dataclass_fields(cls)]
        unknown = sorted(set(d) - set(known))
        if unknown:
            raise ValueError(f"unknown convention keys {unknown}; known keys are {known}")
        return cls(**d)


# ---------------------------------------------------------------------------
# Dirac operator and action
# ---------------------------------------------------------------------------

def dirac(geom: SurfaceGeometry, fields: ComponentFields) -> list[SpinorField]:
    """Dslash psi^t = gamma^a f_a psi^t for every target coordinate t.

    The gravitino-corrected connection would add <gamma^b chi_b, chi_a>
    gamma5 psi to f_a psi; the action reads Dslash psi only through
    <psi, Dslash psi>, and <psi, gamma^a (c gamma5 psi)> vanishes
    identically for odd psi and even c, so the correction is omitted.
    Each psi^t is differentiated once per axis.
    """
    out: list[SpinorField] = []
    for s in fields.psi:
        f1, f2 = geom.frame_derivatives_spinor(s)
        out.append(clifford(1, f1) + clifford(2, f2))
    return out


def _frame_derivatives(geom: SurfaceGeometry,
                       fields: ComponentFields) -> list[list[GrassmannField]]:
    """f_a phi^t = frame[a][k] d_k phi^t of the full (winding-corrected) map,
    indexed [a - 1][t]; the gradients of phi are the ones cached on ``fields``."""
    per_t = [geom.along_frame(fields._phi_gradients[t]) for t in range(fields.dim)]
    return [[f[a] for f in per_t] for a in range(2)]


def _psi_square(fields: ComponentFields) -> GrassmannField:
    """sum_t <psi^t, psi^t>."""
    out = GrassmannField.zero(fields.grid, fields.n_gen)
    for t in range(fields.dim):
        out = out + pairing(fields.psi[t], fields.psi[t])
    return out


def _action_summands(geom: SurfaceGeometry, chi: GravitinoField,
                     fields: ComponentFields, coeffs: ActionCoefficients, add) -> None:
    """Call ``add(i, x)`` for every summand x of action term i (1..5).

    Terms 1 and 3 are always visited; terms 2, 4 and 5 only when their
    coefficient is nonzero (and their fields are present), so the Dirac
    operator is skipped when c2 = 0.  The coefficients themselves are not
    applied: the caller decides how to fold the summands.
    """
    grid, n_gen, d = fields.grid, fields.n_gen, fields.dim

    fphi = _frame_derivatives(geom, fields)

    # Term 1: Dirichlet energy density |dphi|^2.
    for a in (1, 2):
        for t in range(d):
            add(1, fphi[a - 1][t] * fphi[a - 1][t])

    # Term 2: <psi, Dslash psi>.
    has_psi = any(not s.is_zero() for s in fields.psi)
    if has_psi and coeffs.c2:
        dpsi = dirac(geom, fields)
        for t in range(d):
            add(2, pairing(fields.psi[t], dpsi[t]))

    # Term 3: <F, F>.
    for t in range(d):
        if not fields.F[t].is_zero():
            add(3, fields.F[t] * fields.F[t])

    # Term 4: gravitino-matter coupling <gamma^a gamma^b chi_a (f_b phi), psi>.
    if has_psi and not chi.is_zero() and coeffs.c4:
        for a in (1, 2):
            for b in (1, 2):
                rotated = chi[a].matrix_apply(GAMMA_PRODUCTS[a, b])
                for t in range(d):
                    add(4, fphi[b - 1][t] * pairing(rotated, fields.psi[t]))

    # Term 5: <chi_a, gamma^b gamma^a chi_b> <psi, psi>.
    if has_psi and not chi.is_zero() and coeffs.c5:
        chi_coupling = GrassmannField.zero(grid, n_gen)
        for a in (1, 2):
            for b in (1, 2):
                chi_coupling = chi_coupling + pairing(
                    chi[a], chi[b].matrix_apply(GAMMA_PRODUCTS[b, a]))
        add(5, chi_coupling * _psi_square(fields))


def _coefficient_vector(coeffs: ActionCoefficients) -> tuple[float, ...]:
    """(c1, ..., c5), indexed by term number minus one."""
    return (coeffs.c1, coeffs.c2, coeffs.c3, coeffs.c4, coeffs.c5)


def action_density(geom: SurfaceGeometry, chi: GravitinoField,
                   fields: ComponentFields,
                   coeffs: ActionCoefficients = ActionCoefficients()) -> GrassmannField:
    """Pointwise action density including the volume factor."""
    c = _coefficient_vector(coeffs)
    density = GrassmannField.zero(fields.grid, fields.n_gen)

    def add(i: int, x: GrassmannField) -> None:
        nonlocal density
        density = density + x * c[i - 1]

    _action_summands(geom, chi, fields, coeffs, add)
    return density * geom.volume_factor()


def _action_terms(geom: SurfaceGeometry, chi: GravitinoField,
                  fields: ComponentFields,
                  coeffs: ActionCoefficients = ActionCoefficients()) -> list:
    """The integrals Int T_i dvol of the five action terms, unweighted.

    Entry i - 1 is None when term i is absent (gated off as in
    ``action_density``), so sum_i c_i I_i is the action for every choice of
    coefficients that keeps the same terms nonzero.
    """
    terms: list = [None] * 5

    def add(i: int, x: GrassmannField) -> None:
        terms[i - 1] = x if terms[i - 1] is None else terms[i - 1] + x

    _action_summands(geom, chi, fields, coeffs, add)
    vol = geom.volume_factor()
    return [None if t is None else (t * vol).integral() for t in terms]


def action_component(geom: SurfaceGeometry, chi: GravitinoField,
                     fields: ComponentFields,
                     coeffs: ActionCoefficients = ActionCoefficients()) -> GrassmannNumber:
    """The five-term component action integrated over the torus."""
    return action_density(geom, chi, fields, coeffs).integral()


# ---------------------------------------------------------------------------
# Flat superspace R^{2|2}
# ---------------------------------------------------------------------------

# Superspace frame matrices: ghat^1 = gamma^2, ghat^2 = -gamma^1.
_GHAT = {1: GAMMA[2], 2: -GAMMA[1]}


def _super_derivatives(Phi: SuperFunction) -> tuple[SuperFunction, SuperFunction]:
    """(D_1 Phi, D_2 Phi) from one even gradient (d_1 Phi, d_2 Phi)."""
    if Phi.m != 2 or Phi.n_odd != 2:
        raise ValueError("superspace derivative is defined on R^{2|2}")
    grad = (Phi.partial_even(1), Phi.partial_even(2))
    out = []
    for alpha in (1, 2):
        D = Phi.partial_odd(alpha)
        for a in (1, 2):
            gh = _GHAT[a]
            for beta in (1, 2):
                coeff = float(gh[alpha - 1, beta - 1])
                if coeff:
                    D = D + grad[a - 1].mul_odd_coordinate(beta) * coeff
        out.append(D)
    return tuple(out)


def superfield_from_components(fields: ComponentFields) -> list[SuperFunction]:
    """Phi^t = phi^t + eta^1 psi^t_1 + eta^2 psi^t_2 + 1/2 eta^1 eta^2 F^t.

    The factor 1/2 on the top slot is the normalization under which the
    superfield action reproduces the -1/4 <F,F> component term.
    """
    if np.any(fields.winding):
        raise UnsupportedRegimeError("superfield form requires periodic phi (no winding)")
    out = []
    for t in range(fields.dim):
        out.append(SuperFunction(fields.grid, 2, fields.n_gen, {
            0b00: fields.phi[t],
            0b01: fields.psi[t].comps[0],
            0b10: fields.psi[t].comps[1],
            0b11: fields.F[t] * 0.5,
        }))
    return out


def action_superfield_flat(Phis: Sequence[SuperFunction],
                           coeffs: ActionCoefficients = ActionCoefficients()) -> GrassmannNumber:
    """A(Phi) = norm * Int eps^{ab} <D_a Phi, D_b Phi> [d^2x d^2eta].

    The Berezin integral reads only the eta^1 eta^2 coefficient of the
    integrand, so only that coefficient of D_1 Phi D_2 Phi - D_2 Phi D_1 Phi
    is formed; its bits are those of ``berezin_integrate`` of the whole
    integrand.
    """
    grid, n_gen = Phis[0].grid, Phis[0].n_gen
    top = 0b11
    density = GrassmannField.zero(grid, n_gen)
    for Phi in Phis:
        # The even gradient of Phi is freed before the product.
        D1, D2 = _super_derivatives(Phi)
        density = density + D1.product_coefficient(D2, top) - D2.product_coefficient(D1, top)
    return (density * coeffs.superfield_normalization).integral()


# ---------------------------------------------------------------------------
# Supersymmetry
# ---------------------------------------------------------------------------

def susy_fields(fields: ComponentFields, chi: GravitinoField, q: SpinorField,
                geom: SurfaceGeometry,
                coeffs: ActionCoefficients = ActionCoefficients()) -> ComponentFields:
    """Matter supersymmetry variation at F = 0 on a flat target:

        delta phi = s1 <q, psi>,
        delta psi = s2 (f_a phi + <psi, chi_a>) gamma^a q.

    Note the plus sign on the gravitino term: the pairing of two odd
    spinors is symmetric (antisymmetric matrix times anticommuting entries),
    so the sign is not a matter of argument order, and the plus sign is the
    one for which the variation leaves the action invariant.
    """
    if any(not f.is_zero() for f in fields.F):
        raise UnsupportedRegimeError("matter SUSY variations require F = 0")
    require_odd(q, "supersymmetry parameter q")
    grid, n_gen, d = fields.grid, fields.n_gen, fields.dim
    dphi = [pairing(q, fields.psi[t]) * coeffs.s1 for t in range(d)]
    fphi = _frame_derivatives(geom, fields)
    gq = [clifford(a, q) for a in (1, 2)]
    dpsi: list[SpinorField] = []
    for t in range(d):
        acc = SpinorField.zero(grid, n_gen)
        for a in (1, 2):
            scalar = fphi[a - 1][t] + pairing(fields.psi[t], chi[a])
            acc = acc + scalar * gq[a - 1]
        dpsi.append(acc * coeffs.s2)
    return ComponentFields(
        phi=dphi, psi=dpsi,
        F=[GrassmannField.zero(grid, n_gen) for _ in range(d)],
    )


def _q_pairings(chi: GravitinoField, q: SpinorField) -> list[list[GrassmannField]]:
    """<gamma^b q, chi_a> indexed [a - 1][b - 1], forming each gamma^b q once."""
    gq = [clifford(b, q) for b in (1, 2)]
    return [[pairing(g, chi[a]) for g in gq] for a in (1, 2)]


def susy_gravitino_variation(geom: SurfaceGeometry, chi: GravitinoField,
                             q: SpinorField, *, pairings=None) -> GravitinoField:
    """Variation of the gravitino components chi_a = chi(f_a):

        delta chi_a = -f_a q - <gamma^b q, chi_a> chi_b - <q, chi_a> gamma^b chi_b.

    The derivative term is -nabla^S_{f_a} q: the spinor covariant derivative
    of q along the frame vector f_a, whose flat Levi-Civita part is the
    frame derivative f_a q, enters with a minus sign.  That is the sign for
    which the action is invariant under a local q at the calibrated signs
    s1, s2, c4, c5 and the frame variation of ``_susy_varied_geometry``; a
    constant q has f_a q = 0 and cannot tell.  The two quadratic terms carry
    the frame dependence of the components and the completion required for
    invariance of the action (their form is unique up to two-dimensional
    Fierz rearrangements).  ``pairings`` are the <gamma^b q, chi_a> of
    ``_q_pairings(chi, q)``, formed here unless the caller has them.
    """
    require_odd(q, "supersymmetry parameter q")
    if pairings is None:
        pairings = _q_pairings(chi, q)
    gt = chi.gamma_trace()
    fq = geom.frame_derivatives_spinor(q)
    out = []
    for a in (1, 2):
        dchi_a = -fq[a - 1]
        for b in (1, 2):
            dchi_a = dchi_a - pairings[a - 1][b - 1] * chi[b]
        dchi_a = dchi_a - pairing(q, chi[a]) * gt
        out.append(dchi_a)
    return GravitinoField(out)


def _susy_varied_geometry(geom: SurfaceGeometry, chi: GravitinoField,
                          q: SpinorField) -> tuple[SurfaceGeometry, GravitinoField]:
    """(varied geometry, chi + delta chi) under the supersymmetry with parameter q.

    The frame moves by delta f_a = -2 <gamma^b q, chi_a> f_b (even: two odd
    factors) and the gravitino by ``susy_gravitino_variation``; both read the
    same pairings <gamma^b q, chi_a>.
    """
    pairings = _q_pairings(chi, q)
    dchi = susy_gravitino_variation(geom, chi, q, pairings=pairings)
    c = [[p * (-2.0) for p in row] for row in pairings]
    return geom.moved_frame(c), chi + dchi


def _q_generators(geom: SurfaceGeometry, chi: GravitinoField, fields: ComponentFields,
                  q: SpinorField) -> int:
    """The generators of q, checked to be fresh to (geom, chi, fields)."""
    inputs = [e for row in geom.frame for e in row] + fields.phi + fields.F
    inputs += [c for s in (*chi.chi, *fields.psi) for c in s.comps]
    return fresh_generators(q.comps, inputs, "the supersymmetry parameter q")


def susy_invariance_residual(geom: SurfaceGeometry, chi: GravitinoField,
                             fields: ComponentFields, q: SpinorField,
                             coeffs: ActionCoefficients = ActionCoefficients()):
    """Max coefficient of the first variation of the action, one per fixture
    of stacked fields, under the matter + geometry supersymmetry variation
    with the parameter q (constant or local): A(varied) minus its part free of
    q's generators, which is A(original) bit for bit since they must be fresh
    to the inputs (ValueError otherwise).  Subtracting that part keeps a NaN
    of A(original).  For a monomial q the variation is exact (q^2 = 0).
    """
    bits = _q_generators(geom, chi, fields, q)
    varied_geom, varied_chi = _susy_varied_geometry(geom, chi, q)
    varied = fields + susy_fields(fields, chi, q, geom, coeffs)
    a1 = action_component(varied_geom, varied_chi, varied, coeffs)
    return a1.max_abs_diff(a1.free_of(bits))


_SIGNS = (1.0, -1.0)


def _combine(c: Sequence[float], terms: Sequence) -> GrassmannNumber:
    """sum_i c_i I_i over the terms that are present."""
    total = None
    for ci, integral in zip(c, terms):
        if integral is not None:
            total = integral * ci if total is None else total + integral * ci
    return total


def _calibration_scores(battery: Sequence[tuple], base: ActionCoefficients) -> list[tuple]:
    """Worst invariance residual over the battery for all 16 sign candidates.

    Rows are (score, s1, s2, sign c4, sign c5, candidate) in the order
    s1, s2, sign c4, sign c5 with +1 first.  For fixed (s1, s2) the action
    is linear in c1..c5, so each entry needs the per-term integrals of the
    varied configuration once per (s1, s2), and every candidate is scored
    as a linear combination.  The original configuration is not evaluated:
    its integrals are the q-free part of any (s1, s2)'s, as in
    ``susy_invariance_residual``.  An entry may stack fixtures: its score
    is the largest of theirs, NaN if any is NaN.
    """
    cands = {(s1, s2, sig4, sig5): replace(base, s1=s1, s2=s2, c4=sig4 * abs(base.c4),
                                           c5=sig5 * abs(base.c5))
             for s1 in _SIGNS for s2 in _SIGNS for sig4 in _SIGNS for sig5 in _SIGNS}
    worst = dict.fromkeys(cands, 0.0)
    for geom, chi, fields, q in battery:
        bits = _q_generators(geom, chi, fields, q)
        varied_geom, varied_chi = _susy_varied_geometry(geom, chi, q)
        varied = {}
        for s1 in _SIGNS:
            for s2 in _SIGNS:
                delta = susy_fields(fields, chi, q, geom, coeffs=replace(base, s1=s1, s2=s2))
                varied[s1, s2] = _action_terms(varied_geom, varied_chi, fields + delta, coeffs=base)
        terms0 = [None if t is None else t.free_of(bits) for t in varied[1.0, 1.0]]
        for key, cand in cands.items():
            c = _coefficient_vector(cand)
            score = _combine(c, varied[key[:2]]).max_abs_diff(_combine(c, terms0))
            worst[key] = max_or_nan((worst[key], np.max(score)))
    return [(worst[key], *key, cand) for key, cand in cands.items()]


def calibrate_conventions(battery: Sequence[tuple], tolerance: float = 1e-6,
                          base: ActionCoefficients = ActionCoefficients()) -> ActionCoefficients:
    """Sign search over (s1, s2, sign c4, sign c5) for supersymmetry invariance.

    ``battery`` is a sequence of fixtures (geom, chi, fields, q), each of
    which may stack several on the fixture axis; the magnitudes of the coefficients stay those of ``base``.  Each of the 16
    candidates is scored by its worst invariance residual over the battery,
    computed from per-term action integrals (see ``_calibration_scores``);
    the scores agree with ``susy_invariance_residual`` to rounding.  Raises
    CalibrationError when the battery is degenerate (cannot distinguish any
    assignment) or when no assignment meets the tolerance, and ValueError
    when an entry's q shares a generator with its geom, chi or fields.
    """
    if not battery:
        raise CalibrationError("underdetermined: empty calibration battery")
    results = _calibration_scores(battery, base)
    best = min(r[0] for r in results)
    if all(abs(r[0] - best) < 1e-14 for r in results):
        raise CalibrationError("underdetermined: battery does not distinguish sign assignments")
    passing = [r for r in results if r[0] < tolerance]
    if not passing:
        raise CalibrationError(
            f"no sign assignment reaches residual < {tolerance:g}; best = {best:.3e}")
    # Among passing assignments prefer +1 signs (ties between exact zeros
    # happen when the battery admits a compensating flip of q).
    passing.sort(key=lambda r: (-r[1], -r[2], -r[3], -r[4]))
    return passing[0][5]


# ---------------------------------------------------------------------------
# Energy-momentum tensor and super current
# ---------------------------------------------------------------------------

def _lifted(geom: SurfaceGeometry, chi: GravitinoField, fields: ComponentFields,
            n_gen: int) -> tuple[SurfaceGeometry, GravitinoField, ComponentFields]:
    """(geom, chi, fields) on ``n_gen`` generators, every monomial mask unchanged."""
    if n_gen > 63:
        raise ValueError("energy_momentum needs n_gen <= 61 (it lifts to n_gen + 2 <= 63)")

    def field(f: GrassmannField) -> GrassmannField:
        return GrassmannField(f.grid, n_gen, f.terms)

    def spinor(s: SpinorField) -> SpinorField:
        return SpinorField([field(c) for c in s.comps])

    lifted = replace(fields, phi=[field(p) for p in fields.phi],
                     psi=[spinor(s) for s in fields.psi], F=[field(f) for f in fields.F])
    # phi keeps its arrays, so it keeps its gradients: relabel the caller's
    # (computing them there if need be) instead of differentiating again.
    lifted._phi_gradients = [tuple(map(field, grad)) for grad in fields._phi_gradients]
    return (geom.with_frame([[field(e) for e in row] for row in geom.frame]),
            GravitinoField([spinor(s) for s in chi.chi]), lifted)


def energy_momentum(geom: SurfaceGeometry, chi: GravitinoField,
                    fields: ComponentFields,
                    coeffs: ActionCoefficients = ActionCoefficients()) -> list[list[GrassmannField]]:
    """Symmetric 2-tensor T with delta_g A = -Int delta g . T dvol, exact in Lambda_N:
    with eps = e_{N+1} e_{N+2} on two more generators (eps^2 = 0), the frame
    f - 1/2 eps E f is exactly that of g + eps E, and -T . E is the eps coefficient
    of the action density.  Dirichlet sector: T = dphi (x) dphi - 1/2 |dphi|^2 g."""
    n = fields.n_gen
    geom, chi, fields = _lifted(geom, chi, fields, n + 2)
    eps = 0b11 << n
    step = GrassmannField(fields.grid, n + 2, {eps: np.full(fields.grid.shape, -0.5)})

    def variation(c: list[list]) -> GrassmannField:
        terms = action_density(geom.moved_frame(c), chi, fields, coeffs).terms
        return GrassmannField(fields.grid, n, {m ^ eps: -x for m, x in terms.items() if m & eps})

    t11 = variation([[step, 0.0], [0.0, 0.0]])
    t22 = variation([[0.0, 0.0], [0.0, step]])
    t12 = variation([[0.0, step], [step, 0.0]]) * 0.5
    return [[t11, t12], [t12, t22]]


def super_current(geom: SurfaceGeometry, chi: GravitinoField,
                  fields: ComponentFields,
                  coeffs: ActionCoefficients = ActionCoefficients()) -> GravitinoField:
    """J with delta_chi A = Int <delta chi_a, J_a> dvol (exact in Lambda_N):

        J_a = c4 (f_b phi^t) gamma^b gamma^a psi^t
            + 2 c5 <psi, psi> gamma^b gamma^a chi_b.

    The Dirac term carries no gravitino (see ``dirac`` for the gamma5
    identity that lets it drop the gravitino-corrected connection).
    """
    psi_sq = _psi_square(fields)
    fphi = _frame_derivatives(geom, fields)
    out = []
    for a in (1, 2):
        acc = SpinorField.zero(fields.grid, fields.n_gen)
        for b in (1, 2):
            gg = GAMMA_PRODUCTS[b, a]
            for t in range(fields.dim):
                acc = acc + fphi[b - 1][t] * fields.psi[t].matrix_apply(gg) * coeffs.c4
            if not chi.is_zero():
                acc = acc + psi_sq * chi[b].matrix_apply(gg) * (2.0 * coeffs.c5)
        out.append(acc)
    return GravitinoField(out)


# ---------------------------------------------------------------------------
# Harmonic-map gradient flow
# ---------------------------------------------------------------------------

@dataclass
class FlowResult:
    phi: list[np.ndarray]
    winding: np.ndarray
    energies: list[float]
    steps_taken: int
    converged: bool


class FlowDivergenceError(RuntimeError):
    """The flow energy increased for too many consecutive steps."""


def _dirichlet_energy(grid: Grid, phi: list[np.ndarray], winding: np.ndarray) -> float:
    total = 0.0
    for t, p in enumerate(phi):
        for k in range(2):
            dp = spectral_derivative(p, grid, k) + winding[t, k]
            total += float(np.mean(dp * dp))
    return total * grid.volume


# The flow has converged once the Laplacian is below this everywhere.
FLOW_GRAD_TOL = 1e-10


def harmonic_flow(geom: SurfaceGeometry, phi0: list[np.ndarray],
                  steps: int, dt: float,
                  winding: np.ndarray | None = None) -> FlowResult:
    """Explicit gradient descent on the Dirichlet energy of a map into flat R^d.

    phi <- phi + 2 dt Laplace(phi) per component, until the Laplacian is
    below ``FLOW_GRAD_TOL`` everywhere.  The flow steps the ``rfft2`` of the
    stacked map: a step scales every mode by 1 - 2 dt |k|^2, with k the
    Nyquist-zeroed wavenumbers of ``spectral_derivative``, and the Dirichlet
    energy follows by Parseval, since the winding part is orthogonal to every
    periodic mode.  The first and last entries of ``energies`` are evaluated
    in real space.  Raises FlowDivergenceError if the energy increases for 10
    consecutive steps.
    """
    grid = geom.grid
    if winding is None:
        winding = np.zeros((len(phi0), 2))
    winding = np.asarray(winding, dtype=float)
    phi = [np.asarray(p, dtype=float).copy() for p in phi0]
    n0, n1 = grid.shape
    k0 = derivative_wavenumbers(grid, 0)
    k1 = derivative_wavenumbers(grid, 1)[: n1 // 2 + 1]
    ksq = k0[:, None] ** 2 + k1 ** 2
    # Half-spectrum columns other than 0 and (even n1) n1/2 stand for a
    # conjugate pair.
    pairs = np.full(k1.shape, 2.0)
    pairs[0] = 1.0
    if n1 % 2 == 0:
        pairs[-1] = 1.0
    shape, volume = grid.shape, grid.volume
    minus_ksq = -ksq
    growth = 1.0 - 2.0 * dt * ksq
    energy_weight = pairs * ksq / float(n0 * n1) ** 2
    winding_energy = float(np.sum(winding * winding))

    def gradient_max(hat: np.ndarray) -> float:
        return float(np.max(np.abs(np.fft.irfft2(minus_ksq * hat, s=shape))))

    def energy(hat: np.ndarray) -> float:
        power = hat.real ** 2 + hat.imag ** 2
        return (winding_energy + float(np.sum(energy_weight * power))) * volume

    hat = np.fft.rfft2(np.stack(phi))
    energies = [energy(hat)]
    increases = 0
    converged = False
    step = 0
    for step in range(1, steps + 1):
        if gradient_max(hat) < FLOW_GRAD_TOL:
            converged = True
            step -= 1
            break
        hat = hat * growth
        e = energy(hat)
        if e > energies[-1]:
            increases += 1
            if increases >= 10:
                raise FlowDivergenceError(
                    f"energy increased for {increases} consecutive steps; reduce dt")
        else:
            increases = 0
        energies.append(e)
    else:
        # Step budget exhausted; check the final gradient.
        converged = gradient_max(hat) < FLOW_GRAD_TOL
    energies[0] = _dirichlet_energy(grid, phi, winding)
    if step:
        phi = list(np.fft.irfft2(hat, s=shape))
        energies[-1] = _dirichlet_energy(grid, phi, winding)
    return FlowResult(phi=phi, winding=winding, energies=energies,
                      steps_taken=step, converged=converged)


# ---------------------------------------------------------------------------
# Holomorphy helpers
# ---------------------------------------------------------------------------

def t_zz(T: list[list[GrassmannField]]) -> tuple[GrassmannField, GrassmannField]:
    """Real and imaginary parts of T_zz = 1/4 (T11 - T22 - 2i T12)."""
    re = (T[0][0] - T[1][1]) * 0.25
    im = T[0][1] * (-0.5)
    return re, im


def d_zbar(re: GrassmannField, im: GrassmannField) -> tuple[GrassmannField, GrassmannField]:
    """d_zbar = 1/2 (d_1 + i d_2) applied to re + i im."""
    out_re = (re.derivative(0) - im.derivative(1)) * 0.5
    out_im = (im.derivative(0) + re.derivative(1)) * 0.5
    return out_re, out_im


def current_spin32(J: GravitinoField) -> tuple[GrassmannField, GrassmannField]:
    """Complex spin-3/2 component of J (the gamma-trace-free part).

    With u_a = J_a^1 + i J_a^2 (chirality combination for gamma5 = C), the
    trace-free datum is w = 1/2 (u_1 - i u_2); its real and imaginary parts
    are returned.
    """
    j11, j12 = J[1].comps
    j21, j22 = J[2].comps
    # u_a = J_a^1 + i J_a^2 ; w = (u_1 - i u_2) / 2.
    re = (j11 + j22) * 0.5
    im = (j12 - j21) * 0.5
    return re, im
