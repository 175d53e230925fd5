"""Grassmann-valued fields sampled on uniform periodic grids.

A ``GrassmannField`` stores one real sample array per Grassmann basis
monomial (bitmask key, as in :mod:`supersigma.grassmann`).  Even-direction
derivatives are spectral, so all differential identities hold to machine
precision for band-limited data.

A field may also hold a batch of fixtures: its sample arrays then have the
shape ``(B, *grid.shape)``, one slice per fixture, and every operation acts
on each slice as it would on that fixture's own field.  ``integral`` and
``max_abs`` reduce the grid axes and keep the fixture axis, one value per
fixture, and ``compose_body`` interpolates each fixture with the shared
phase matrix.  Only ``value_at`` refuses a stacked field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .grassmann import (DimensionMismatchError, GradedElement, GrassmannNumber, _mask_limit,
                        max_or_nan)

__all__ = ["Grid", "GrassmannField", "derivative_wavenumbers", "spectral_derivative"]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on a torus [0,P_1) x ... x [0,P_m)."""

    shape: tuple[int, ...]
    periods: tuple[float, ...]

    def __post_init__(self):
        if len(self.shape) != len(self.periods):
            raise ValueError("shape and periods must have equal length")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if any(n < 1 for n in self.shape):
            raise ValueError(f"grid sizes must be at least 1, got {self.shape}")
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def volume(self) -> float:
        return math.prod(self.periods)

    def axis_points(self, axis: int) -> np.ndarray:
        n, p = self.shape[axis], self.periods[axis]
        return np.arange(n) * (p / n)

    def coordinates(self) -> list[np.ndarray]:
        """Full coordinate arrays of ``shape`` (meshgrid, ij indexing)."""
        axes = [self.axis_points(a) for a in range(self.ndim)]
        return list(np.meshgrid(*axes, indexing="ij")) if self.ndim > 1 else [axes[0]]

    def wavenumbers(self, axis: int) -> np.ndarray:
        n, p = self.shape[axis], self.periods[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=p / n)


def derivative_wavenumbers(grid: Grid, axis: int) -> np.ndarray:
    """Angular wavenumbers along ``axis`` (``fftfreq`` order) as spectral
    derivatives use them: the Nyquist mode of an even-length axis is zeroed,
    so odd derivatives of real samples stay real."""
    k = grid.wavenumbers(axis)
    n = grid.shape[axis]
    if n % 2 == 0:
        k[n // 2] = 0.0
    return k


@lru_cache(maxsize=64)
def _derivative_multiplier(grid: Grid, axis: int) -> np.ndarray:
    """Read-only ``1j * k`` along ``axis``, shared by every derivative on ``grid``."""
    ik = 1j * derivative_wavenumbers(grid, axis)
    ik.flags.writeable = False
    return ik


# Most samples one derivative transform takes at once.  Measured with one
# thread, a stack of this many takes 0.2x (32 masks at 16^2) to 0.9x (2 masks
# at 64^2) the time of one transform per mask; four masks at 64^2 take 1.6x,
# and stacks of 1e5 samples or more 2-3x, once the spectrum leaves the cache.
_STACK_SAMPLES = 8192


def _fourier_derivative(buf: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Differentiate the complex array ``buf`` in place along grid ``axis`` of
    its trailing grid axes and return it; leading axes (a stack of sample
    arrays) share one transform.

    The transform, the product with ``1j * k`` and the inverse all write into
    ``buf``, so a large grid allocates no temporary; the bits are those of
    ``ifft(ik * fft(values))``.  ``buf`` must be an array the caller owns.
    """
    ik = _derivative_multiplier(grid, axis).reshape((-1,) + (1,) * (grid.ndim - axis - 1))
    np.fft.fft(buf, axis=axis - grid.ndim, out=buf)
    np.multiply(ik, buf, out=buf)
    return np.fft.ifft(buf, axis=axis - grid.ndim, out=buf)


def spectral_derivative(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Fourier-space derivative along ``axis``; exact on trig polynomials.

    The Nyquist mode is zeroed (odd derivative of an even-length grid).
    ``values`` is left unchanged.
    """
    out = _fourier_derivative(np.array(values, dtype=complex), grid, axis)
    # The real part is copied out, so the result does not keep the complex
    # buffer alive.
    return out.real.copy() if np.isrealobj(values) else out


def _interpolation_phase(grid: Grid, points: np.ndarray) -> np.ndarray:
    """The matrix exp(i x k) of the trigonometric interpolant at ``points``
    (1-d grids); an even-length grid gets one column each for +-k_nyq."""
    if grid.ndim != 1:
        raise NotImplementedError("trig interpolation implemented for 1-d grids only")
    n = grid.shape[0]
    k = grid.wavenumbers(0)
    if n % 2 == 0:
        # fftfreq assigns -k_nyq to index n//2; split that mode into +-k_nyq
        # halves so the interpolant stays real for real samples.
        k_nyq = np.pi * n / grid.periods[0]
        k = np.concatenate([k, [k_nyq]])
        k[n // 2] = -k_nyq
    return np.exp(1j * np.multiply.outer(points, k))


def _interpolation_coefficients(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of 1-d samples along the last axis, ordered as the
    columns of ``_interpolation_phase``; leading axes (fixtures) are kept."""
    n = values.shape[-1]
    fhat = np.fft.fft(values) / n
    if n % 2 == 0:
        fhat = np.concatenate([fhat, 0.5 * fhat[..., n // 2:n // 2 + 1]], axis=-1)
        fhat[..., n // 2] *= 0.5
    return fhat


class GrassmannField(GradedElement):
    """Field on a periodic grid with values in a real Grassmann algebra.

    Each term is an array of ``grid.shape``, or of ``(B, *grid.shape)`` for a
    field stacked over B fixtures; when some terms are stacked, the others
    are broadcast to the same shape.  Any other array is broadcast to
    ``grid.shape``.  ``n_gen`` and the masks are checked as for a
    ``GrassmannNumber``.
    """

    __slots__ = ("grid", "n_gen")

    _scalars = (int, float, np.ndarray)

    def __init__(self, grid: Grid, n_gen: int, terms: Mapping[int, np.ndarray] | None = None):
        limit = _mask_limit(n_gen)
        self.grid = grid
        self.n_gen = n_gen
        clean: dict[int, np.ndarray] = {}
        if terms:
            stacked = None
            for mask, arr in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"monomial mask {mask} out of range for n_gen={n_gen}")
                a = np.asarray(arr, dtype=float)
                if a.shape != grid.shape:
                    if a.shape[1:] != grid.shape:
                        a = np.broadcast_to(a, grid.shape).copy()
                    elif stacked is None:
                        stacked = a.shape
                    elif a.shape != stacked:
                        raise ValueError(f"terms stack different fixture counts: "
                                         f"{stacked[0]} and {a.shape[0]}")
                # A nonzero or NaN first sample keeps the term without a
                # scan; only a +-0.0 first sample scans the whole array.
                if a.item(0) or a.any():
                    clean[mask] = a
            if stacked is not None:
                for mask, a in clean.items():
                    if a.shape != stacked:
                        clean[mask] = np.broadcast_to(a, stacked).copy()
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, grid: Grid, n_gen: int) -> "GrassmannField":
        return cls(grid, n_gen)

    @classmethod
    def from_array(cls, grid: Grid, n_gen: int, values: np.ndarray) -> "GrassmannField":
        return cls(grid, n_gen, {0: np.asarray(values, dtype=float)})

    @classmethod
    def constant(cls, grid: Grid, value: GrassmannNumber) -> "GrassmannField":
        """The field equal to ``value`` everywhere (per fixture for array coefficients)."""
        return cls(grid, value.n_gen, {
            m: np.multiply.outer(c, np.ones(grid.shape)) for m, c in value.terms.items()})

    def _new(self, terms) -> "GrassmannField":
        return GrassmannField(self.grid, self.n_gen, terms)

    def _coerce(self, other) -> "GrassmannField | None":
        if isinstance(other, GrassmannNumber):
            other = GrassmannField.constant(self.grid, other)
        elif isinstance(other, (int, float, np.ndarray)):
            other = GrassmannField.from_array(self.grid, self.n_gen, np.asarray(other, dtype=float) * np.ones(self.grid.shape))
        elif not isinstance(other, GrassmannField):
            return None
        if self.n_gen != other.n_gen:
            raise DimensionMismatchError(
                f"mixed generator counts: {self.n_gen} vs {other.n_gen}")
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        return other

    def body(self) -> np.ndarray:
        return self.terms.get(0, np.zeros(self.grid.shape)).copy()

    # -- calculus ----------------------------------------------------------

    def derivative(self, axis: int) -> "GrassmannField":
        """Spectral derivative of every term.

        Terms share one transform in stacks of up to ``_STACK_SAMPLES``
        samples; each term gets the same bits as from ``spectral_derivative``.
        """
        arrays = list(self.terms.values())
        if not arrays:
            return self
        per_stack = max(1, _STACK_SAMPLES // arrays[0].size)
        # One complex buffer serves every stack, filled straight from the
        # terms; the real parts go to one block that does not keep it alive.
        buf = np.empty((min(per_stack, len(arrays)),) + arrays[0].shape, dtype=complex)
        out = np.empty((len(arrays),) + arrays[0].shape)
        for i in range(0, len(arrays), per_stack):
            chunk = arrays[i:i + per_stack]
            stack = np.stack(chunk, out=buf[:len(chunk)])
            out[i:i + len(chunk)] = _fourier_derivative(stack, self.grid, axis).real
        return self._new(dict(zip(self.terms, out)))

    def integral(self) -> GrassmannNumber:
        """Periodic trapezoid rule (= mean times torus volume), per monomial.

        A stacked field integrates each fixture alone: its coefficients are
        arrays of one integral per fixture.
        """
        vol, grid_axes = self.grid.volume, tuple(range(-self.grid.ndim, 0))
        return GrassmannNumber(self.n_gen, {
            m: a.mean(axis=grid_axes) * vol for m, a in self.terms.items()})

    def compose_body(self, points: np.ndarray) -> "GrassmannField":
        """Evaluate the trig interpolant of every term at new abscissae (1-d);
        the terms, and the fixtures of a stacked field, share one phase matrix."""
        if not self.terms:
            return self
        return self._compose_phase(_interpolation_phase(self.grid, points))

    def _compose_phase(self, phase: np.ndarray) -> "GrassmannField":
        """``compose_body`` at the points of ``phase = _interpolation_phase(grid, points)``.

        Each fixture of a stacked term is one matrix-vector product with
        ``phase``, the same bits as for that fixture's own field.
        """
        return self._new({
            m: np.real(np.matmul(phase, _interpolation_coefficients(a)[..., None])[..., 0])
            for m, a in self.terms.items()})

    def nilpotent_power(self, p: float) -> "GrassmannField":
        """f**p via the finite binomial series around the body.

        Requires a nowhere-zero body; exact because the soul is nilpotent.
        Covers inverse (p=-1) and square roots (p=0.5) of even fields.
        """
        b = self.body()
        if np.any(b == 0.0):
            raise ValueError("nilpotent_power requires a nowhere-zero body")
        s = self.soul() * (1.0 / b)
        out = GrassmannField.from_array(self.grid, self.n_gen, np.power(b, p))
        power = GrassmannField.from_array(self.grid, self.n_gen, np.ones(self.grid.shape))
        coeff = 1.0
        for k in range(1, self.n_gen + 1):
            coeff *= (p - (k - 1)) / k
            power = power * s
            if power.is_zero():
                break
            out = out + power * (coeff * np.power(b, p))
        return out

    # -- inspection --------------------------------------------------------

    def max_abs(self):
        """Largest |sample| over every term: one value per fixture of a stacked field."""
        grid_axes = tuple(range(-self.grid.ndim, 0))
        return max_or_nan(np.max(np.abs(a), axis=grid_axes) for a in self.terms.values())

    def value_at(self, index: tuple[int, ...]) -> GrassmannNumber:
        a = next(iter(self.terms.values()), None)
        if a is not None and a.ndim != self.grid.ndim:
            raise ValueError(f"value_at is not defined on a field stacked over "
                             f"{a.shape[0]} fixtures")
        return GrassmannNumber(self.n_gen, {m: float(a[index]) for m, a in self.terms.items()})

    def __repr__(self):
        return f"GrassmannField(shape={self.grid.shape}, monomials={sorted(self.terms)})"
