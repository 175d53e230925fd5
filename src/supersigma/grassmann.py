"""Exact arithmetic in a finite real Grassmann algebra.

Basis monomials of the algebra on N anticommuting generators are encoded
as bitmasks: bit i set means generator i+1 is present (generators are
1-based in the public API, matching the usual eta^1, eta^2, ... notation).
All sign bookkeeping is structural and exact; floating point enters only
through the real coefficients.

``GradedElement`` holds the algebra shared by Grassmann numbers, Grassmann
fields (:mod:`supersigma.gridfield`) and superfunctions
(:mod:`supersigma.superdomain`): one sum, one graded product and one Koszul
sign rule over a map from monomial bitmasks to coefficients.

A coefficient may also be a 1-d array with one value per fixture (the
integral of a field stacked over fixtures): every operation then acts on
each fixture's value alone, and ``max_abs`` keeps the fixture axis, giving
one value per fixture.  ``max_or_nan`` folds such values elementwise.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "Parity",
    "GradedElement",
    "GrassmannNumber",
    "DimensionMismatchError",
    "ParityError",
    "fresh_generators",
    "max_or_nan",
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


def max_or_nan(values: Iterable):
    """The elementwise maximum of 0.0 and ``values`` (floats, or arrays of one
    value per fixture), NaN wherever one is NaN: Python's ``max`` drops a NaN
    that does not come first (``max(0.0, nan)`` is 0.0), which would turn a
    NaN residual into a passing check."""
    out = 0.0
    for v in values:
        out = np.maximum(out, v)
    return out


def _mask_limit(n_gen: int) -> int:
    """2**n_gen; ValueError unless 0 <= n_gen <= 63 (a mask is an int64)."""
    if not 0 <= n_gen <= 63:
        raise ValueError("generator count must be between 0 and 63")
    return 1 << n_gen


def fresh_generators(direction: Iterable, inputs: Iterable, what: str) -> int:
    """The generators of the monomials of the graded elements ``direction``,
    as a bitmask; ValueError naming the lowest one that a monomial of
    ``inputs`` also carries.  A variation along fresh generators puts one in
    every monomial it adds, so the part of a varied value ``free_of`` them is
    the unvaried value bit for bit."""
    fresh = used = 0
    for x in direction:
        for m in x.terms:
            fresh |= m
    for x in inputs:
        for m in x.terms:
            used |= m
    shared = fresh & used
    if shared:
        raise ValueError(f"{what} shares generator {(shared & -shared).bit_length()} "
                         "with the unvaried inputs")
    return fresh


def _flip_mask(a: int) -> int:
    """Bit j set when ``a`` has an odd number of generators above index j.

    A generator j of a right factor passes exactly those generators of ``a``
    on its way into increasing order, so e_a * e_b picks up the sign
    (-1)**popcount(_flip_mask(a) & b): the bitmap reordering sign of Dorst,
    Fontijne & Mann, *Geometric Algebra for Computer Science* (2007), ch. 19.
    The suffix parity takes one shift and six doubling XORs, enough for 63
    generators.
    """
    x = a >> 1
    x ^= x >> 1
    x ^= x >> 2
    x ^= x >> 4
    x ^= x >> 8
    x ^= x >> 16
    x ^= x >> 32
    return x


def monomial_sign(a: int, b: int) -> int:
    """Koszul sign of e_a * e_b for basis monomials given as bitmasks.

    Returns 0 when the monomials share a generator (the product vanishes),
    otherwise (-1)**k where k counts the transpositions needed to sort the
    concatenated index sequence.
    """
    if a & b:
        return 0
    return -1 if (_flip_mask(a) & b).bit_count() & 1 else 1


class GradedElement:
    """One graded algebra: the sum, the product and the sign rule.

    ``terms`` maps a monomial bitmask to its coefficient: a real number
    (``GrassmannNumber``), a sample array (``GrassmannField``) or a
    Grassmann-valued field (``SuperFunction``).  Subclasses supply only what
    depends on the coefficient type: ``_new`` (a new element with the same
    ambient space, dropping zero terms), ``_coerce`` (an operand converted to
    the subclass and checked against this element's domain, or None) and
    ``max_abs``.  Elements are immutable values: never mutate ``terms``.
    """

    __slots__ = ("terms",)

    # NumPy hands ``array * element`` (array on the left) to ``__rmul__``
    # instead of building an object array of elements.
    __array_ufunc__ = None

    # Operands that scale every coefficient and commute with everything.
    _scalars: tuple = (int, float)
    # True when the coefficients are themselves graded (SuperFunction): an odd
    # coefficient then anticommutes with odd monomials and adds to the parity.
    _graded_coefficients = False

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> Parity:
        """EVEN, ODD or MIXED; a term's degree is its mask's plus its coefficient's."""
        seen = set()
        for m, c in self.terms.items():
            degree = m.bit_count()
            if self._graded_coefficients:
                p = c.parity()
                if p is Parity.MIXED:
                    return Parity.MIXED
                degree += p.value
            seen.add(degree & 1)
        if len(seen) > 1:
            return Parity.MIXED
        return Parity.ODD if 1 in seen else Parity.EVEN

    def soul(self):
        """Nilpotent remainder: the element minus its body."""
        out = dict(self.terms)
        if 0 in out:
            if self._graded_coefficients:
                out[0] = out[0].soul()
            else:
                del out[0]
        return self._new(out)

    def scale_by_parity(self, even: float, odd: float):
        """Scale the even part by ``even`` and the odd part by ``odd``."""
        out = {}
        for m, c in self.terms.items():
            e, o = (odd, even) if m.bit_count() & 1 else (even, odd)
            out[m] = c.scale_by_parity(e, o) if self._graded_coefficients else c * e
        return self._new(out)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # A sum with zero is the other operand: no new element, no copies.
        if not o.terms:
            return self
        if not self.terms:
            return o
        out = dict(self.terms)
        for m, c in o.terms.items():
            out[m] = out[m] + c if m in out else c
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Graded product; ``other`` multiplies from the right."""
        if isinstance(other, self._scalars):
            # x * 1.0 and x * -1.0 are x and -x bit for bit.
            if type(other) in (int, float):
                if other == 1:
                    return self
                if other == -1:
                    return -self
            return self._new({m: c * other for m, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        koszul = self._graded_coefficients
        out = {}
        for ma, ca in self.terms.items():
            # The sign rule of ``monomial_sign``, with the flip mask of the
            # left monomial taken once for every right term.
            flip = _flip_mask(ma)
            for mb, cb in o.terms.items():
                if ma & mb:
                    continue
                # Koszul sign: the odd part of the left coefficient
                # changes sign as it passes an odd right monomial.
                left = ca.scale_by_parity(1.0, -1.0) if koszul and mb.bit_count() & 1 else ca
                prod = -(left * cb) if (flip & mb).bit_count() & 1 else left * cb
                m = ma | mb
                out[m] = out[m] + prod if m in out else prod
        return self._new(out)

    def __rmul__(self, other):
        # Real scalars commute; any other coercible operand multiplies from the left.
        if isinstance(other, self._scalars):
            return self * other
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def free_of(self, bits: int):
        """The terms whose monomials carry none of the generators in the mask ``bits``."""
        return self._new({m: c for m, c in self.terms.items() if not m & bits})

    def max_abs_diff(self, other):
        return (self - other).max_abs()


class GrassmannNumber(GradedElement):
    """Element of the real Grassmann algebra on ``n_gen`` generators.

    A coefficient is a float, or a 1-d array of per-fixture values; a term
    is dropped when it is zero (every value ±0.0) and kept when it is NaN.
    """

    __slots__ = ("n_gen",)

    def __init__(self, n_gen: int, terms: Mapping[int, float] | None = None):
        limit = _mask_limit(n_gen)
        self.n_gen = n_gen
        clean: dict[int, float] = {}
        if terms:
            for mask, c in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"monomial mask {mask} out of range for n_gen={n_gen}")
                if type(c) is not float and getattr(c, "ndim", 0):
                    if c.ndim != 1:
                        raise ValueError(f"per-fixture coefficients must be 1-d, got shape {c.shape}")
                    if c.any():
                        clean[mask] = c.astype(float, copy=False)
                elif c != 0.0:
                    clean[mask] = float(c)
        self.terms = clean

    @classmethod
    def scalar(cls, n_gen: int, value: float) -> "GrassmannNumber":
        return cls(n_gen, {0: value})

    def _new(self, terms) -> "GrassmannNumber":
        return GrassmannNumber(self.n_gen, terms)

    def _coerce(self, other) -> "GrassmannNumber | None":
        if isinstance(other, (int, float)):
            return GrassmannNumber.scalar(self.n_gen, other)
        if not isinstance(other, GrassmannNumber):
            return None
        if self.n_gen != other.n_gen:
            raise DimensionMismatchError(
                f"mixed generator counts: {self.n_gen} vs {other.n_gen}")
        return other

    # -- structure ---------------------------------------------------------

    def body(self) -> float:
        """Real part: coefficient of the empty monomial."""
        return self.terms.get(0, 0.0)

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
        for m, c in self.terms.items():
            if m & mask == mask:
                rest = m ^ mask
                # Reorder eta^rest eta^mask from the increasing-order monomial.
                sign = monomial_sign(rest, mask)
                out[rest] = out.get(rest, 0.0) + sign * c
        return GrassmannNumber(self.n_gen, out)

    # -- inspection --------------------------------------------------------

    def max_abs(self):
        """Largest |coefficient|: one value per fixture for array coefficients."""
        return max_or_nan(abs(c) for c in self.terms.values())

    def __repr__(self):
        if any(type(c) is not float for c in self.terms.values()):
            raise ValueError("a Grassmann number with per-fixture coefficients has no repr; "
                             "index its coefficients instead")
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            mono = "".join(f"e{i + 1}" for i in range(self.n_gen) if m >> i & 1)
            parts.append(f"{self.terms[m]:+g}{('*' + mono) if mono else ''}")
        return " ".join(parts)


def unit(n_gen: int) -> GrassmannNumber:
    return GrassmannNumber.scalar(n_gen, 1.0)


def generator(n_gen: int, i: int) -> GrassmannNumber:
    """The i-th generator (1-based)."""
    if not 1 <= i <= n_gen:
        raise ValueError(f"generator index {i} out of range 1..{n_gen}")
    return GrassmannNumber(n_gen, {1 << (i - 1): 1.0})
