"""Flat-torus surface geometry with spinors, gravitino, and their transformations.

The spinor bundle is a real rank-2 bundle with the fixed Clifford matrices

    gamma^1 = [[1, 0], [0, -1]],   gamma^2 = [[0, 1], [1, 0]],

and spinor pairing <s, t> = s^T C t with C = gamma^1 gamma^2 = [[0, 1], [-1, 0]]
(antisymmetric, so <psi, psi> is generically nonzero for odd-valued psi).
The chirality operator is gamma5 = gamma^1 gamma^2 = C.  The matrices are
read-only module constants, not a setting: ``GAMMA[a]`` is gamma^a,
``PAIRING_MATRIX`` is C (and gamma5), and ``GAMMA_PRODUCTS[a, b]`` is the
exact integer matrix gamma^a gamma^b.

Frames are stored as 2x2 matrices of even Grassmann fields, frame[a][k]
holding the k-th coordinate component of the frame vector f_a; the induced
metric is the identity exactly when the frame is orthonormal.  Nilpotent
(soul-valued) frame perturbations are handled exactly through the finite
Grassmann expansion of 1/det and sqrt.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Sequence

import numpy as np

from .grassmann import Parity, max_or_nan, require_even, require_odd
from .gridfield import GrassmannField, Grid

__all__ = [
    "GAMMA",
    "GAMMA_PRODUCTS",
    "PAIRING_MATRIX",
    "SpinorField",
    "GravitinoField",
    "SurfaceGeometry",
    "clifford",
    "pairing",
    "super_weyl",
    "weyl",
]


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


GAMMA = MappingProxyType({1: _read_only(np.array([[1.0, 0.0], [0.0, -1.0]])),
                          2: _read_only(np.array([[0.0, 1.0], [1.0, 0.0]]))})
PAIRING_MATRIX = _read_only(GAMMA[1] @ GAMMA[2])
GAMMA_PRODUCTS = MappingProxyType({(a, b): _read_only(GAMMA[a] @ GAMMA[b])
                                   for a in (1, 2) for b in (1, 2)})


class SpinorField:
    """Rank-2 spinor with Grassmann-field components on the torus grid."""

    __slots__ = ("comps",)

    def __init__(self, comps: Sequence[GrassmannField]):
        comps = tuple(comps)
        if len(comps) != 2:
            raise ValueError("spinor fields have exactly two components")
        if comps[0].grid != comps[1].grid or comps[0].n_gen != comps[1].n_gen:
            raise ValueError("spinor components must share grid and algebra")
        self.comps = comps

    @classmethod
    def zero(cls, grid: Grid, n_gen: int) -> "SpinorField":
        return cls([GrassmannField.zero(grid, n_gen)] * 2)

    @property
    def grid(self) -> Grid:
        return self.comps[0].grid

    @property
    def n_gen(self) -> int:
        return self.comps[0].n_gen

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def parity(self) -> Parity:
        ps = {c.parity() for c in self.comps if not c.is_zero()}
        if not ps:
            return Parity.EVEN
        if len(ps) > 1:
            return Parity.MIXED
        return ps.pop()

    def __add__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField([a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self) -> "SpinorField":
        return SpinorField([-a for a in self.comps])

    def __mul__(self, other) -> "SpinorField":
        """Right scaling by a real scalar/array."""
        return SpinorField([c * other for c in self.comps])

    def __rmul__(self, other) -> "SpinorField":
        """Left multiplication by reals, GrassmannNumbers, or even fields."""
        return SpinorField([other * c for c in self.comps])

    def matrix_apply(self, m: np.ndarray) -> "SpinorField":
        """Pointwise action of a real 2x2 matrix on the spinor index.

        Zero entries are skipped: their products would be dropped as zero
        terms, except that a NaN or infinite sample times 0.0 is NaN.
        """
        rows = []
        for i in range(2):
            row = GrassmannField.zero(self.grid, self.n_gen)
            for j in range(2):
                c = float(m[i, j])
                if c:
                    row = row + self.comps[j] * c
            rows.append(row)
        return SpinorField(rows)

    def derivative(self, axis: int) -> "SpinorField":
        return SpinorField([c.derivative(axis) for c in self.comps])

    def max_abs(self):
        return max_or_nan(c.max_abs() for c in self.comps)

    def max_abs_diff(self, other: "SpinorField"):
        return (self - other).max_abs()


def clifford(a: int, s: SpinorField) -> SpinorField:
    """gamma^a acting pointwise on the spinor index."""
    return s.matrix_apply(GAMMA[a])


def pairing(s: SpinorField, t: SpinorField) -> GrassmannField:
    """<s, t> = sum_{ab} s_a C_{ab} t_b (factors multiplied in this order)."""
    out = GrassmannField.zero(s.grid, s.n_gen)
    for a in range(2):
        for b in range(2):
            c = float(PAIRING_MATRIX[a, b])
            if c:
                out = out + s.comps[a] * t.comps[b] * c
    return out


class GravitinoField:
    """chi_a = chi(f_a) for the two frame directions; odd spinor per direction."""

    __slots__ = ("chi",)

    def __init__(self, chi: Sequence[SpinorField]):
        chi = tuple(chi)
        if len(chi) != 2:
            raise ValueError("gravitino has one spinor per frame direction")
        for c in chi:
            require_odd(c, "gravitino components")
        self.chi = chi

    @classmethod
    def zero(cls, grid: Grid, n_gen: int) -> "GravitinoField":
        return cls([SpinorField.zero(grid, n_gen)] * 2)

    def __getitem__(self, a: int) -> SpinorField:
        """chi_a with a in {1, 2}."""
        return self.chi[a - 1]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.chi)

    def __add__(self, other: "GravitinoField") -> "GravitinoField":
        return GravitinoField([a + b for a, b in zip(self.chi, other.chi)])

    def __sub__(self, other: "GravitinoField") -> "GravitinoField":
        return GravitinoField([a - b for a, b in zip(self.chi, other.chi)])

    def gamma_trace(self) -> SpinorField:
        return clifford(1, self[1]) + clifford(2, self[2])

    def max_abs(self):
        return max_or_nan(c.max_abs() for c in self.chi)

    def max_abs_diff(self, other: "GravitinoField"):
        return (self - other).max_abs()


class SurfaceGeometry:
    """Flat torus with an (even Grassmann-valued) frame f_a = frame[a][k] d_k."""

    __slots__ = ("grid", "n_gen", "frame")

    def __init__(self, grid: Grid, n_gen: int,
                 frame: Sequence[Sequence[GrassmannField]] | None = None):
        if grid.ndim != 2:
            raise ValueError("surface geometry requires a 2D grid")
        self.grid = grid
        self.n_gen = n_gen
        if frame is None:
            one = GrassmannField.from_array(grid, n_gen, np.ones(grid.shape))
            zero = GrassmannField.zero(grid, n_gen)
            frame = [[one, zero], [zero, one]]
        self.frame = [[frame[a][k] for k in range(2)] for a in range(2)]
        for row in self.frame:
            for entry in row:
                require_even(entry, "frame entries")
        det_body = (self.frame[0][0].body() * self.frame[1][1].body()
                    - self.frame[0][1].body() * self.frame[1][0].body())
        if np.any(det_body <= 0.0):
            raise ValueError("frame body must be invertible and orientation-preserving")

    @classmethod
    def flat(cls, grid: Grid, n_gen: int) -> "SurfaceGeometry":
        return cls(grid, n_gen)

    def is_identity_frame(self) -> bool:
        for a in range(2):
            for k in range(2):
                t = self.frame[a][k].terms
                if a == k:
                    if set(t) != {0} or not (t[0] == 1.0).all():
                        return False
                elif t:
                    return False
        return True

    def frame_determinant(self) -> GrassmannField:
        return (self.frame[0][0] * self.frame[1][1]
                - self.frame[0][1] * self.frame[1][0])

    def volume_factor(self) -> GrassmannField:
        """dvol_g = volume_factor * dx^1 dx^2 (= 1/det f for orthonormal f)."""
        return self.frame_determinant().nilpotent_power(-1.0)

    def along_frame(self, grad: Sequence[GrassmannField]) -> tuple[GrassmannField, GrassmannField]:
        """(f_1 g, f_2 g) with f_a g = frame[a][k] d_k g, from grad = (d_0 g, d_1 g)."""
        return tuple(row[0] * grad[0] + row[1] * grad[1] for row in self.frame)

    def frame_derivatives(self, g: GrassmannField) -> tuple[GrassmannField, GrassmannField]:
        """(f_1 g, f_2 g), differentiating g once along each axis."""
        return self.along_frame((g.derivative(0), g.derivative(1)))

    def frame_derivatives_spinor(self, s: SpinorField) -> tuple[SpinorField, SpinorField]:
        """(f_1 s, f_2 s) componentwise, differentiating each component once per axis."""
        (c1, c2), (d1, d2) = (self.frame_derivatives(c) for c in s.comps)
        return SpinorField([c1, d1]), SpinorField([c2, d2])

    def with_frame(self, frame) -> "SurfaceGeometry":
        """This geometry with ``frame``, in the algebra of the frame's entries."""
        return SurfaceGeometry(self.grid, frame[0][0].n_gen, frame)

    def moved_frame(self, c) -> "SurfaceGeometry":
        """The frame f_a -> f_a + c[a][0] f_1 + c[a][1] f_2 for even c (reals or fields)."""
        f = self.frame
        return self.with_frame([[f[a][k] + (c[a][0] * f[0][k] + c[a][1] * f[1][k])
                                 for k in range(2)] for a in range(2)])


def super_weyl(chi: GravitinoField, t: SpinorField) -> GravitinoField:
    """chi_a -> chi_a + gamma^a t."""
    require_odd(t, "super Weyl parameter t")
    return GravitinoField([chi[a] + clifford(a, t) for a in (1, 2)])


def weyl(geom: SurfaceGeometry, lam: GrassmannField) -> SurfaceGeometry:
    """Conformal rescaling g -> lam g, realized as frame scaling by lam^{-1/2}."""
    require_even(lam, "conformal factor")
    if np.any(lam.body() <= 0.0):
        raise ValueError("conformal factor must have positive body")
    scale = lam.nilpotent_power(-0.5)
    new = [[scale * geom.frame[a][k] for k in range(2)] for a in range(2)]
    return geom.with_frame(new)
