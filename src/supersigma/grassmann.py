"""Exact arithmetic in a finite real Grassmann algebra.

Basis monomials of the algebra on N anticommuting generators are encoded
as bitmasks: bit i set means generator i+1 is present (generators are
1-based in the public API, matching the usual eta^1, eta^2, ... notation).
All sign bookkeeping is structural and exact; floating point enters only
through the real coefficients.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping

__all__ = [
    "Parity",
    "GrassmannNumber",
    "DimensionMismatchError",
    "ParityError",
    "monomial_sign",
    "require_even",
    "require_odd",
    "generator",
    "unit",
]


class DimensionMismatchError(ValueError):
    """Operands live in Grassmann algebras with different generator counts."""


class ParityError(ValueError):
    """An argument does not have the parity an operation requires."""


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1
    MIXED = "mixed"


def require_even(x, what: str) -> None:
    """Raise ParityError("<what> must be even") unless ``x`` is even.

    ``x`` is anything with ``is_zero()`` and ``parity()`` (Grassmann numbers,
    Grassmann fields, spinors); zero counts as both even and odd.
    """
    if not x.is_zero() and x.parity() is not Parity.EVEN:
        raise ParityError(f"{what} must be even")


def require_odd(x, what: str) -> None:
    """Raise ParityError("<what> must be odd") unless ``x`` is odd or zero."""
    if not x.is_zero() and x.parity() is not Parity.ODD:
        raise ParityError(f"{what} must be odd")


def monomial_sign(a: int, b: int) -> int:
    """Koszul sign of e_a * e_b for basis monomials given as bitmasks.

    Returns 0 when the monomials share a generator (the product vanishes),
    otherwise (-1)**k where k counts the transpositions needed to sort the
    concatenated index sequence.
    """
    if a & b:
        return 0
    # For each generator in a, count generators in b with smaller index:
    # those are exactly the inversions created by the concatenation.
    inv = 0
    rest = a
    while rest:
        low = rest & -rest
        inv += (b & (low - 1)).bit_count()
        rest ^= low
    return -1 if inv & 1 else 1


class GrassmannNumber:
    """Element of the real Grassmann algebra on ``n_gen`` generators.

    Immutable value type: never mutate ``coeffs`` after construction.
    """

    __slots__ = ("n_gen", "coeffs")

    def __init__(self, n_gen: int, coeffs: Mapping[int, float] | None = None):
        if not 0 <= n_gen <= 63:
            raise ValueError("generator count must be between 0 and 63")
        self.n_gen = n_gen
        clean: dict[int, float] = {}
        if coeffs:
            limit = 1 << n_gen
            for mask, c in coeffs.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"monomial mask {mask} out of range for n_gen={n_gen}")
                if c != 0.0:
                    clean[mask] = float(c)
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, n_gen: int, value: float) -> "GrassmannNumber":
        return cls(n_gen, {0: value})

    # -- structure ---------------------------------------------------------

    def body(self) -> float:
        """Real part: coefficient of the empty monomial."""
        return self.coeffs.get(0, 0.0)

    def soul(self) -> "GrassmannNumber":
        """Nilpotent remainder: the element minus its body."""
        return GrassmannNumber(self.n_gen, {m: c for m, c in self.coeffs.items() if m})

    def parity(self) -> Parity:
        has_even = any(m.bit_count() % 2 == 0 for m in self.coeffs)
        has_odd = any(m.bit_count() % 2 == 1 for m in self.coeffs)
        if has_even and has_odd:
            return Parity.MIXED
        if has_odd:
            return Parity.ODD
        return Parity.EVEN

    def is_zero(self) -> bool:
        return not self.coeffs

    def top_coefficient(self, indices: Iterable[int]) -> "GrassmannNumber":
        """Coefficient of the ordered product of the given generators.

        The designated generators are the "integration generators"; the
        result involves only the remaining ones (same ambient algebra).
        Extraction matches the expansion with all monomials written in
        increasing index order.
        """
        mask = 0
        for i in indices:
            bit = 1 << (i - 1)
            if i > self.n_gen:
                raise ValueError(f"generator index {i} exceeds n_gen={self.n_gen}")
            mask |= bit
        out: dict[int, float] = {}
        for m, c in self.coeffs.items():
            if m & mask == mask:
                rest = m ^ mask
                # Reorder eta^rest eta^mask from the increasing-order monomial.
                sign = monomial_sign(rest, mask)
                out[rest] = out.get(rest, 0.0) + sign * c
        return GrassmannNumber(self.n_gen, out)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "GrassmannNumber") -> None:
        if self.n_gen != other.n_gen:
            raise DimensionMismatchError(
                f"mixed generator counts: {self.n_gen} vs {other.n_gen}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = GrassmannNumber.scalar(self.n_gen, other)
        if not isinstance(other, GrassmannNumber):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return GrassmannNumber(self.n_gen, out)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannNumber(self.n_gen, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, GrassmannNumber) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return GrassmannNumber(self.n_gen, {m: c * other for m, c in self.coeffs.items()})
        if not isinstance(other, GrassmannNumber):
            return NotImplemented
        self._check(other)
        out: dict[int, float] = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                s = monomial_sign(ma, mb)
                if s:
                    m = ma | mb
                    out[m] = out.get(m, 0.0) + s * ca * cb
        return GrassmannNumber(self.n_gen, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def scale_by_parity(self, even: float, odd: float) -> "GrassmannNumber":
        """Scale even-degree terms by ``even`` and odd-degree terms by ``odd``."""
        return GrassmannNumber(
            self.n_gen,
            {m: c * (odd if m.bit_count() & 1 else even) for m, c in self.coeffs.items()},
        )

    # -- comparison / io ---------------------------------------------------

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def max_abs_diff(self, other: "GrassmannNumber") -> float:
        return (self - other).max_abs()

    def __eq__(self, other):
        if isinstance(other, (int, float)):
            other = GrassmannNumber.scalar(self.n_gen, other)
        if not isinstance(other, GrassmannNumber):
            return NotImplemented
        return self.n_gen == other.n_gen and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n_gen, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            mono = "".join(f"e{i + 1}" for i in range(self.n_gen) if m >> i & 1)
            parts.append(f"{self.coeffs[m]:+g}{('*' + mono) if mono else ''}")
        return " ".join(parts)


def unit(n_gen: int) -> GrassmannNumber:
    return GrassmannNumber.scalar(n_gen, 1.0)


def generator(n_gen: int, i: int) -> GrassmannNumber:
    """The i-th generator (1-based)."""
    if not 1 <= i <= n_gen:
        raise ValueError(f"generator index {i} out of range 1..{n_gen}")
    return GrassmannNumber(n_gen, {1 << (i - 1): 1.0})
