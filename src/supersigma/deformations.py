"""Infinitesimal deformations of the flat-torus geometry and their
decomposition into conformal, diffeomorphism, supersymmetry, and residual
("true") parts.

A metric deformation splits as

    delta g = lambda g + L_X g + (metric image of susy(q)) + D,

where D is trace-free and divergence-free, and a gravitino deformation as

    delta chi = gamma t + L_X chi + susy(q) + DD,

where DD is gamma-trace-free.  On the flat torus with the gravitino
background chi = 0 the susy metric image vanishes identically and the
gravitino susy image is delta chi_a = -d_a q, minus the plain directional
derivative of q (``sigma2d.susy_gravitino_variation``), so both
decompositions reduce to finite linear algebra on each Fourier mode: the
metric residual D is the transverse-traceless part of York's split.

The band is fixed by the grid: the Fourier modes with |m| <= min(shape) // 4
on both axes.  Every band mode is fitted in one batched least-squares
solve per Grassmann mask: the design matrices of all band modes are
stacked into one tensor A, its pseudo-inverse A+ (singular-value cutoff
1e-10) is applied to one mask's components (every fixture of an input
stacked over fixtures at once), and the residual is rhs - A A+ rhs.
The band holds -m with every m, and A(-m) is conj A(m), so A+ is computed
for one mode of each conjugate pair and conjugated for the other.
A and A+ depend only on the grid (shape and periods) and the line (metric
or gravitino); both are cached under the key (grid, line), keeping the two
most recently used keys (the metric and the gravitino line of one grid).

The residual spaces are two-dimensional on each line: the constant
trace-free symmetric tensors and the constant gamma-trace-free gravitino
sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .grassmann import max_or_nan, require_even, require_odd
from .gridfield import GrassmannField, Grid
from .sigma2d import UnsupportedRegimeError
from .spin_surface import GAMMA, GravitinoField, SpinorField, SurfaceGeometry

__all__ = [
    "MetricDeformation",
    "DecompositionResult",
    "lie_derivative_metric",
    "decompose_metric",
    "decompose_gravitino",
    "true_deformation_dimensions",
]

SVD_CUTOFF = 1e-10


@dataclass
class MetricDeformation:
    """Symmetric 2-tensor delta g with even Grassmann-valued entries."""

    tensor: Sequence[Sequence[GrassmannField]]

    def __post_init__(self):
        t = [[self.tensor[a][b] for b in range(2)] for a in range(2)]
        if np.any(t[0][1].max_abs_diff(t[1][0]) > 0.0):
            raise ValueError("metric deformation must be symmetric")
        for row in t:
            for entry in row:
                require_even(entry, "metric deformation entries")
        self.tensor = t

    @property
    def grid(self) -> Grid:
        return self.tensor[0][0].grid

    @property
    def n_gen(self) -> int:
        return self.tensor[0][0].n_gen

    def __sub__(self, other: "MetricDeformation") -> "MetricDeformation":
        return MetricDeformation(
            [[self.tensor[a][b] - other.tensor[a][b] for b in range(2)] for a in range(2)])

    def max_abs(self):
        return max_or_nan(self.tensor[a][b].max_abs() for a in range(2) for b in range(2))

    def max_abs_diff(self, other: "MetricDeformation"):
        return (self - other).max_abs()

    def trace(self) -> GrassmannField:
        return self.tensor[0][0] + self.tensor[1][1]

    def divergence(self) -> list[GrassmannField]:
        """(div delta g)_a = d_b (delta g)_{ab} on the flat torus."""
        return [self.tensor[a][0].derivative(0) + self.tensor[a][1].derivative(1)
                for a in range(2)]


@dataclass
class DecompositionResult:
    """Parameters and residuals of a deformation decomposition.

    The metric line fills ``weyl`` (lambda), ``vector`` (X), and
    ``residual_metric`` (D); the gravitino line fills ``super_weyl`` (t),
    ``susy_parameter`` (q), and ``residual_gravitino`` (DD).  Unused slots
    are None.  Residual norms are max-coefficient magnitudes; for an input
    stacked over fixtures the fields are stacked too, and each norm has one
    value per fixture.
    """

    weyl: GrassmannField | None = None
    vector: list[GrassmannField] | None = None
    susy_parameter: SpinorField | None = None
    super_weyl: SpinorField | None = None
    residual_metric: MetricDeformation | None = None
    residual_gravitino: GravitinoField | None = None
    reassembly_residual: float = 0.0
    trace_residual: float = 0.0
    divergence_residual: float = 0.0
    gamma_trace_residual: float = 0.0
    null_directions: list[str] = field(default_factory=list)

    def residual_norms(self) -> dict:
        return {
            "reassembly": self.reassembly_residual,
            "trace": self.trace_residual,
            "divergence": self.divergence_residual,
            "gamma_trace": self.gamma_trace_residual,
        }


def _require_flat_background(geom: SurfaceGeometry, chi: GravitinoField) -> None:
    if not geom.is_identity_frame():
        raise UnsupportedRegimeError(
            "deformation decomposition requires the flat identity frame")
    if not chi.is_zero():
        raise UnsupportedRegimeError(
            "deformation decomposition requires gravitino background chi = 0")


def lie_derivative_metric(geom: SurfaceGeometry, X: Sequence[GrassmannField]) -> MetricDeformation:
    """(L_X g)_{ab} = d_a X_b + d_b X_a on the flat torus (g = identity)."""
    if not geom.is_identity_frame():
        raise UnsupportedRegimeError("Lie derivative implemented for the flat identity frame")
    for comp in X:
        require_even(comp, "vector field components")
    dX = [[X[b].derivative(a) for b in range(2)] for a in range(2)]
    return MetricDeformation([[dX[a][b] + dX[b][a] for b in range(2)] for a in range(2)])


def _band_cutoff(grid: Grid) -> int:
    """The band's largest |m| on either axis, min(shape) // 4: below n/2 on
    every axis, so the band holds -m with every m."""
    return min(grid.shape) // 4


def _mode_wavenumbers(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Angular wavenumbers and integer mode indices along each axis.

    ``fftfreq(n, d=1/n)`` misses the integers by an ulp for some n (49, 98,
    103, ...), which would drop the modes |m| = cutoff from the band; so the
    indices are rounded.
    """
    n1, n2 = grid.shape
    m1 = np.fft.fftfreq(n1, d=1.0 / n1).round()
    m2 = np.fft.fftfreq(n2, d=1.0 / n2).round()
    k1 = 2.0 * np.pi * m1 / grid.periods[0]
    k2 = 2.0 * np.pi * m2 / grid.periods[1]
    return k1, k2, m1, m2


def _metric_columns(kap1, kap2) -> np.ndarray:
    """Design matrices for components (g11, g12, g22), shape kap.shape + (3, 3).

    Column 0: conformal direction lambda * identity.
    Columns 1-2: (L_X g)_{ab} = i kappa_a X_b + i kappa_b X_a.
    """
    kap1, kap2 = np.broadcast_arrays(np.asarray(kap1, dtype=float),
                                     np.asarray(kap2, dtype=float))
    A = np.zeros(kap1.shape + (3, 3), dtype=complex)
    A[..., 0, 0] = A[..., 2, 0] = 1.0
    A[..., 0, 1] = 2j * kap1
    A[..., 1, 1] = 1j * kap2
    A[..., 1, 2] = 1j * kap1
    A[..., 2, 2] = 2j * kap2
    return A


def _gravitino_columns(kap1, kap2) -> np.ndarray:
    """Design matrices for components (chi_1^1, chi_1^2, chi_2^1, chi_2^2),
    shape kap.shape + (4, 4).

    Columns 0-1: super-Weyl direction delta chi_a = gamma^a t.
    Columns 2-3: susy direction delta chi_a = d_a p = i kappa_a p (the flat
    spin connection at chi = 0), whose parameter p is -q for the
    supersymmetry delta chi_a = -d_a q.
    """
    kap1, kap2 = np.broadcast_arrays(np.asarray(kap1, dtype=float),
                                     np.asarray(kap2, dtype=float))
    eye = np.eye(2)
    A = np.zeros(kap1.shape + (4, 4), dtype=complex)
    A[..., 0:2, 0:2] = GAMMA[1]
    A[..., 2:4, 0:2] = GAMMA[2]
    A[..., 0:2, 2:4] = (1j * kap1)[..., None, None] * eye
    A[..., 2:4, 2:4] = (1j * kap2)[..., None, None] * eye
    return A


def _paired_pinv(A: np.ndarray) -> np.ndarray:
    """Pseudo-inverses of the band design matrices ``A``, shape (n1_band,
    n2_band, rows, cols), with one ``pinv`` call for all of them.

    A band keeps the fftfreq order 0, 1, ..., -1 on each axis and holds -m
    with every m, so the mode -m of position i sits at position (-i) mod len.
    A(-m) is conj A(m) on both lines (the columns are real constants and
    i kappa), so only the zero mode and one member of each conjugate pair of
    modes, the one first in the band, are inverted; each partner is filled
    with the conjugate, which is pinv A(-m) exactly.
    """
    n1, n2 = A.shape[:2]
    partner = ((-np.arange(n1) % n1)[:, None] * n2 + (-np.arange(n2) % n2)).ravel()
    own = np.arange(n1 * n2) <= partner
    A = A.reshape(n1 * n2, *A.shape[-2:])
    A_pinv = np.empty((n1 * n2, A.shape[-1], A.shape[-2]), dtype=A.dtype)
    A_pinv[own] = np.linalg.pinv(A[own], rcond=SVD_CUTOFF)
    A_pinv[~own] = A_pinv[partner[~own]].conj()
    return A_pinv.reshape(n1, n2, *A_pinv.shape[1:])


@lru_cache(maxsize=2)
def _band_matrices(grid: Grid, line: str) -> tuple:
    """(band, A, A+) of the band modes of ``grid`` (``_band_cutoff``), read-only.

    ``band`` indexes the band modes of a transform's last two axes; A is the
    design matrices stacked over them, shape (n1_band, n2_band, n_components,
    n_params), and A+ their pseudo-inverses (``_paired_pinv``).  ``line`` is
    "metric" or "gravitino".  The two most recently used keys are kept: the
    metric and the gravitino line of one grid.
    """
    k1, k2, m1, m2 = _mode_wavenumbers(grid)
    cutoff = _band_cutoff(grid)
    i1 = np.flatnonzero(np.abs(m1) <= cutoff)
    i2 = np.flatnonzero(np.abs(m2) <= cutoff)
    kap1, kap2 = k1[i1][:, None], k2[i2]
    A = (_metric_columns if line == "metric" else _gravitino_columns)(kap1, kap2)
    A_pinv = _paired_pinv(A)
    for a in (i1, i2, A, A_pinv):
        a.flags.writeable = False
    return (..., i1[:, None], i2), A, A_pinv


def _inverse_fft2(buf: np.ndarray) -> None:
    """Inverse-transform the trailing two axes of the complex ``buf`` in place.

    ``np.fft.ifft2(buf, out=buf)`` would return a fresh array: numpy 2.4.6
    passes ``out=None`` on to the 1-d transforms.  So the two axes are
    transformed one at a time, last axis first as ``ifft2`` does, and the
    bits are those of ``ifft2(buf)``.
    """
    np.fft.ifft(buf, axis=-1, out=buf)
    np.fft.ifft(buf, axis=-2, out=buf)


def _band_solve(comps: Sequence[GrassmannField],
                line: str) -> tuple[list[GrassmannField], list[GrassmannField]]:
    """Least-squares fit of the component fields on every band mode and mask
    of ``line``, "metric" or "gravitino" (see ``_band_matrices``).

    Returns one field per parameter and one residual field per component;
    modes outside the band go entirely to the residual.
    Component fields stacked over fixtures are solved fixture by fixture
    in one pass, and so are the fields returned.

    One mask is solved at a time in one complex buffer: its component stack
    is transformed in place, the band modes are overwritten by the residual,
    and the residuals and then the parameters are inverse-transformed in the
    same buffer.  Their real parts go into one float block per kind, which
    the returned fields view.
    """
    grid, n_gen = comps[0].grid, comps[0].n_gen
    masks = sorted({m for f in comps for m in f.terms}) or [0]
    shape = np.broadcast_shapes(grid.shape, *(a.shape for f in comps for a in f.terms.values()))
    band, A, A_pinv = _band_matrices(grid, line)
    n_comps, n_params = A.shape[-2:]

    params = np.empty((n_params, len(masks)) + shape)
    resid = np.empty((n_comps, len(masks)) + shape)
    buf = np.empty((max(n_comps, n_params),) + shape, dtype=complex)
    F, P = buf[:n_comps], buf[:n_params]
    zero = np.zeros(grid.shape)
    for k, mask in enumerate(masks):
        for c, f in enumerate(comps):
            F[c] = f.terms.get(mask, zero)
        np.fft.fft2(F, out=F)
        rhs = np.moveaxis(F[band], 0, -1)[..., None]
        sol = A_pinv @ rhs
        F[band] = np.moveaxis((rhs - A @ sol)[..., 0], -1, 0)
        _inverse_fft2(F)
        resid[:, k] = F.real
        P.fill(0.0)
        P[band] = np.moveaxis(sol[..., 0], -1, 0)
        _inverse_fft2(P)
        params[:, k] = P.real

    return ([GrassmannField(grid, n_gen, dict(zip(masks, p))) for p in params],
            [GrassmannField(grid, n_gen, dict(zip(masks, r))) for r in resid])


def decompose_metric(geom: SurfaceGeometry, chi: GravitinoField,
                     dg: MetricDeformation) -> DecompositionResult:
    """Least-squares split delta g = lambda g + L_X g + D per Fourier mode of
    the band (modes outside it go to D).

    Requires the flat identity frame and gravitino background chi = 0; at
    that background the susy metric image -2<gamma^b q, chi_a> f_b vanishes
    identically, so q = 0 and the split is the classical three-term one.
    The residual D is trace-free and divergence-free for band-limited
    inputs.  Constant vector fields (Killing fields of the flat metric)
    are null directions of the fit and are reported, not errors.
    """
    _require_flat_background(geom, chi)
    grid, n_gen = dg.grid, dg.n_gen
    params, r = _band_solve([dg.tensor[0][0], dg.tensor[0][1], dg.tensor[1][1]], "metric")
    lam, X = params[0], params[1:3]
    D = MetricDeformation([[r[0], r[1]], [r[1], r[2]]])

    reassembled = _reassemble_metric(geom, lam, X, D)
    res = DecompositionResult(
        weyl=lam, vector=X,
        susy_parameter=SpinorField.zero(grid, n_gen),
        residual_metric=D,
        reassembly_residual=reassembled.max_abs_diff(dg),
        trace_residual=D.trace().max_abs(),
        divergence_residual=max_or_nan(f.max_abs() for f in D.divergence()),
        null_directions=["constant vector fields (Killing)",
                         "susy metric image vanishes at chi = 0"],
    )
    return res


def _reassemble_metric(geom: SurfaceGeometry, lam: GrassmannField,
                       X: Sequence[GrassmannField], D: MetricDeformation) -> MetricDeformation:
    lie = lie_derivative_metric(geom, X)
    t = [[lie.tensor[a][b] + D.tensor[a][b] for b in range(2)] for a in range(2)]
    t[0][0] = t[0][0] + lam
    t[1][1] = t[1][1] + lam
    return MetricDeformation(t)


def decompose_gravitino(geom: SurfaceGeometry, chi: GravitinoField,
                        dchi: GravitinoField) -> DecompositionResult:
    """Least-squares split delta chi = gamma t + susy(q) + DD per Fourier mode
    of the band (modes outside it go to DD).

    Requires the flat identity frame and gravitino background chi = 0; at
    that background L_X chi = 0 (null direction) and the susy image is
    delta chi_a = -d_a q, as ``sigma2d.susy_gravitino_variation`` makes it:
    ``susy_parameter`` is that q.  The residual DD is
    gamma-trace-free for band-limited inputs.  Constant spinors (harmonic
    on the flat torus with trivial spin structure) are null directions of
    the susy fit and are reported, not errors.
    """
    _require_flat_background(geom, chi)
    for a in (1, 2):
        require_odd(dchi[a], "gravitino deformation")
    grid, n_gen = dchi[1].grid, dchi[1].n_gen
    params, r = _band_solve(
        [dchi[1].comps[0], dchi[1].comps[1], dchi[2].comps[0], dchi[2].comps[1]], "gravitino")
    t = SpinorField(params[0:2])
    # The columns fit delta chi_a = +d_a p; the transformation's q is -p.
    q = -SpinorField(params[2:4])
    DD = GravitinoField([SpinorField(r[0:2]), SpinorField(r[2:4])])

    reassembled = _reassemble_gravitino(t, q, DD)
    return DecompositionResult(
        super_weyl=t, susy_parameter=q,
        vector=[GrassmannField.zero(grid, n_gen) for _ in range(2)],
        residual_gravitino=DD,
        reassembly_residual=reassembled.max_abs_diff(dchi),
        gamma_trace_residual=DD.gamma_trace().max_abs(),
        null_directions=["L_X chi vanishes at chi = 0",
                         "constant spinors q (harmonic)"],
    )


def _reassemble_gravitino(t: SpinorField, q: SpinorField, DD: GravitinoField) -> GravitinoField:
    """gamma^a t - d_a q + DD_a: the super-Weyl part, the supersymmetry image
    and the residual."""
    out = []
    for a in (1, 2):
        part = t.matrix_apply(GAMMA[a]) - q.derivative(a - 1) + DD[a]
        out.append(part)
    return GravitinoField(out)


def true_deformation_dimensions(geom: SurfaceGeometry) -> tuple[int, int]:
    """Real dimensions of the residual ("true") deformation spaces.

    Even part: symmetric 2-tensors on the band of ``geom``'s grid
    (|m| <= min(shape) // 4) with zero trace and zero divergence.  Odd part:
    gravitino-shaped sections on that band with zero gamma-trace and zero
    divergence.  Computed per Fourier mode as complex nullities of the
    constraint matrices (singular values below 1e-10 relative count as
    zero); each nonzero mode contributes twice its complex nullity as a real
    dimension, the zero mode once.
    On the flat torus both come out 2: the constant trace-free symmetric
    tensors and the constant gamma-trace-free sections.
    """
    if not geom.is_identity_frame():
        raise UnsupportedRegimeError("dimension count implemented for the flat identity frame")
    grid = geom.grid
    cutoff = _band_cutoff(grid)
    n1, n2 = np.meshgrid(np.arange(cutoff + 1), np.arange(-cutoff, cutoff + 1), indexing="ij")
    keep = (n1 > 0) | (n2 >= 0)
    n1, n2 = n1[keep], n2[keep]
    kap1 = 2.0 * np.pi * n1 / grid.periods[0]
    kap2 = 2.0 * np.pi * n2 / grid.periods[1]
    mult = np.where((n1 == 0) & (n2 == 0), 1, 2)
    eye = np.eye(2)

    def dimension(A: np.ndarray) -> int:
        s = np.linalg.svd(A, compute_uv=False)
        smax = np.where(s[:, 0] > 0, s[:, 0], 1.0)
        rank = np.sum(s > SVD_CUTOFF * smax[:, None], axis=-1)
        return int(np.sum(mult * (A.shape[-1] - rank)))

    # Even line: unknowns (g11, g12, g22); trace + divergence rows.
    Ae = np.zeros(kap1.shape + (3, 3), dtype=complex)
    Ae[:, 0, 0] = Ae[:, 0, 2] = 1.0
    Ae[:, 1, 0] = Ae[:, 2, 1] = 1j * kap1
    Ae[:, 1, 1] = Ae[:, 2, 2] = 1j * kap2
    # Odd line: unknowns (chi_1^1, chi_1^2, chi_2^1, chi_2^2);
    # gamma-trace + divergence rows.
    Ao = np.zeros(kap1.shape + (4, 4), dtype=complex)
    Ao[:, 0:2, 0:2] = GAMMA[1]
    Ao[:, 0:2, 2:4] = GAMMA[2]
    Ao[:, 2:4, 0:2] = (1j * kap1)[:, None, None] * eye
    Ao[:, 2:4, 2:4] = (1j * kap2)[:, None, None] * eye
    return dimension(Ae), dimension(Ao)
