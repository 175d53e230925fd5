import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supersigma.grassmann import (
    DimensionMismatchError,
    GrassmannNumber,
    Parity,
    ParityError,
    fresh_generators,
    generator,
    max_or_nan,
    monomial_sign,
    require_even,
    require_odd,
    unit,
)
from supersigma.gridfield import GrassmannField, Grid
from supersigma.spin_surface import SpinorField
from supersigma.superdomain import SuperFunction

from conftest import stack

N = 6


def _sign_by_inversions(a_mask: int, b_mask: int, n: int = N) -> int:
    """Independent oracle: sort the concatenated generator index list by
    adjacent transpositions and count the swaps."""
    if a_mask & b_mask:
        return 0
    indices = [i for i in range(n) if a_mask >> i & 1] \
        + [i for i in range(n) if b_mask >> i & 1]
    swaps = 0
    arr = list(indices)
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                swaps += 1
    return -1 if swaps % 2 else 1


def test_monomial_sign_matches_inversion_oracle():
    for a in range(1 << N):
        for b in range(1 << N):
            assert monomial_sign(a, b) == _sign_by_inversions(a, b)


def test_monomial_sign_matches_inversion_oracle_up_to_63_generators():
    # Six generators never reach the later doubling steps of the flip mask;
    # pairs spread over 63 generators need every one of them.
    rng = np.random.default_rng(63)
    full = (1 << 63) - 1
    for i in range(10_000):
        n = 63 if i % 2 else int(rng.integers(1, 64))
        union = int(rng.integers(0, 1 << n, dtype=np.uint64))
        split = int(rng.integers(0, 1 << 63, dtype=np.uint64))
        a, b = union & split, union & ~split & full
        if i % 10 == 0:
            b |= 1 << int(rng.integers(0, n))  # mostly overlapping: sign 0
        assert monomial_sign(a, b) == _sign_by_inversions(a, b, 63), (a, b)
    # Generator 63 passes the 62 generators below it.
    assert monomial_sign(1 << 62, (1 << 62) - 1) == 1
    assert monomial_sign(1 << 62, 1) == -1


def test_product_signs_across_63_generators():
    n = 63
    for i, j in [(1, 63), (2, 40), (17, 50), (33, 34), (1, 2)]:
        gi, gj = generator(n, i), generator(n, j)
        assert (gj * gi).max_abs_diff(-(gi * gj)) == 0.0
        assert (gi * gj).terms == {(1 << (i - 1)) | (1 << (j - 1)): 1.0}
    # e1 e2 ... e63 built left to right stays in increasing order; built right
    # to left, the same monomial picks up the sign of reversing 63 indices.
    forward = unit(n)
    backward = unit(n)
    for i in range(1, n + 1):
        forward = forward * generator(n, i)
        backward = generator(n, i) * backward
    top = (1 << n) - 1
    assert forward.terms == {top: 1.0}
    assert backward.terms == {top: (-1.0) ** (n * (n - 1) // 2)}


def test_max_or_nan_lets_nan_through():
    assert max_or_nan([]) == 0.0
    assert max_or_nan([0.5, 2.0, 1.0]) == 2.0
    assert max([0.0, math.nan]) == 0.0  # what the builtin does
    for values in ([0.0, math.nan], [math.nan, 1.0], [1.0, math.nan, 3.0]):
        assert math.isnan(max_or_nan(values))
    number = GrassmannNumber(N, {0: 1.0, 0b11: math.nan})
    assert math.isnan(number.max_abs())
    assert math.isnan(number.max_abs_diff(unit(N)))


def _elements(max_masks=5):
    return st.dictionaries(st.integers(0, (1 << N) - 1),
                           st.integers(-8, 8).map(float),
                           max_size=max_masks).map(lambda d: GrassmannNumber(N, d))


@settings(max_examples=200, deadline=None)
@given(_elements(), _elements(), _elements())
def test_associativity_exact(a, b, c):
    assert ((a * b) * c).max_abs_diff(a * (b * c)) == 0.0


@settings(max_examples=200, deadline=None)
@given(_elements(), _elements(), _elements())
def test_distributivity_exact(a, b, c):
    assert (a * (b + c)).max_abs_diff(a * b + a * c) == 0.0


@settings(max_examples=200, deadline=None)
@given(_elements(), st.integers(0, 1), st.integers(0, 1))
def test_graded_commutativity(a, pa, pb):
    ha = GrassmannNumber(N, {m: c for m, c in a.terms.items()
                             if bin(m).count("1") % 2 == pa})
    hb = GrassmannNumber(N, {m: -c for m, c in a.terms.items()
                             if bin(m).count("1") % 2 == pb})
    sign = -1.0 if (pa and pb) else 1.0
    assert (ha * hb).max_abs_diff((hb * ha) * sign) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_elements(), _elements(), _elements()), min_size=1, max_size=6))
def test_product_of_stacks_is_each_fixtures_product(fixtures):
    # Three fixed fixtures: e1 e2 (sign +1), e2 e1 (sign -1), and zero, which
    # lacks every monomial the others have.
    e1, e2 = generator(N, 1), generator(N, 2)
    fixtures = fixtures + [(e1, e2, unit(N)), (e2, e1, unit(N)), (GrassmannNumber(N),) * 3]
    a, b, c = stack(fixtures)
    stacked = (a * b) * c
    for i, (x, y, z) in enumerate(fixtures):
        own = (x * y) * z
        assert set(own.terms) <= set(stacked.terms)
        for m, values in stacked.terms.items():
            assert values[i] == own.terms.get(m, 0.0)
    assert stacked.terms[0b11][-3:].tolist() == [1.0, -1.0, 0.0]


# The graded product as a plain term loop with ``monomial_sign``, kept as the
# reference: a fresh temporary for every term product, its negation and every
# partial sum.
def _product_with_fresh_temporaries(a, b):
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            prod = -(ca * cb) if monomial_sign(ma, mb) < 0 else ca * cb
            m = ma | mb
            out[m] = out[m] + prod if m in out else prod
    return a._new(out)


def _bits(element):
    """Each term's type, shape and bytes: equal only for bitwise-equal elements."""
    return {m: (type(c).__name__, np.shape(c), np.asarray(c, dtype=float).tobytes())
            for m, c in element.terms.items()}


_PRODUCT_GRID = Grid((3, 2), (1.0, 2.0))


@st.composite
def _product_operands(draw):
    """Two fields or two numbers whose terms are each drawn stacked over three
    fixtures or not, so an operand may mix both; coefficients of mixed sizes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fields = draw(st.booleans())

    def coefficient(stacked):
        scale = 10.0 ** rng.integers(-3, 4)
        if fields:
            return scale * rng.normal(size=((3,) if stacked else ()) + _PRODUCT_GRID.shape)
        return scale * rng.normal(size=3) if stacked else float(scale * rng.normal())

    def operand():
        masks = draw(st.lists(st.integers(0, (1 << N) - 1), min_size=1, max_size=10, unique=True))
        terms = {m: coefficient(draw(st.booleans())) for m in masks}
        return GrassmannField(_PRODUCT_GRID, N, terms) if fields else GrassmannNumber(N, terms)

    return operand(), operand()


@settings(max_examples=300, deadline=None)
@given(_product_operands())
def test_product_has_the_bits_of_the_plain_term_loop(operands):
    a, b = operands
    before = _bits(a), _bits(b)
    for x, y in ((a, b), (b, a), (a, a)):
        assert _bits(x * y) == _bits(_product_with_fresh_temporaries(x, y))
    # Elements are values: no product wrote into an operand's arrays.
    assert (_bits(a), _bits(b)) == before


def test_generator_squares_vanish():
    for i in range(1, N + 1):
        g = generator(N, i)
        assert (g * g).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=N, max_size=N))
def test_odd_linear_combinations_square_to_zero(coeffs):
    lin = GrassmannNumber(N, {1 << i: float(c) for i, c in enumerate(coeffs)})
    assert (lin * lin).is_zero()


@settings(max_examples=100, deadline=None)
@given(_elements())
def test_soul_is_nilpotent(a):
    power = unit(N)
    s = a.soul()
    for _ in range(N + 1):
        power = power * s
    assert power.is_zero()


def test_unit_is_identity(rng):
    a = GrassmannNumber(N, {int(m): float(rng.normal())
                            for m in rng.integers(0, 1 << N, 8)})
    assert (unit(N) * a).max_abs_diff(a) == 0.0
    assert (a * unit(N)).max_abs_diff(a) == 0.0


def test_parity_classification():
    assert unit(N).parity() is Parity.EVEN
    assert generator(N, 1).parity() is Parity.ODD
    assert (generator(N, 1) * generator(N, 2)).parity() is Parity.EVEN
    assert (unit(N) + generator(N, 1)).parity() is Parity.MIXED
    assert GrassmannNumber(N).parity() is Parity.EVEN


def test_parity_of_products():
    a = generator(N, 1) * generator(N, 2) * generator(N, 3)
    assert a.parity() is Parity.ODD
    assert (a * generator(N, 4)).parity() is Parity.EVEN


def test_body_and_soul_split():
    a = unit(N) * 2.5 + generator(N, 1) * 3.0
    assert a.body() == 2.5
    assert a.soul().max_abs_diff(generator(N, 1) * 3.0) == 0.0


def test_top_coefficient_extraction():
    a = generator(N, 1) * generator(N, 2) * 4.0 + unit(N)
    top = a.top_coefficient([1, 2])
    assert top.max_abs_diff(unit(N) * 4.0) == 0.0
    # Remaining generators stand to the left of the extracted block with
    # the reordering sign: theta1 theta3 = -(theta3) theta1.
    b = generator(N, 1) * generator(N, 3) * 2.0
    assert b.top_coefficient([1]).max_abs_diff(generator(N, 3) * -2.0) == 0.0
    assert a.top_coefficient([2]).max_abs_diff(generator(N, 1) * 4.0) == 0.0


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        unit(3) * unit(4)


def test_parity_rule_zero_passes_both_mixed_fails_both():
    grid = Grid((8,), (2.0 * np.pi,))
    x = grid.axis_points(0)
    mixed_number = unit(N) + generator(N, 1)
    mixed_field = GrassmannField(grid, N, {0: np.sin(x), 0b1: np.cos(x)})
    zero_field = GrassmannField.zero(grid, N)
    cases = [
        (GrassmannNumber(N), mixed_number),
        (zero_field, mixed_field),
        (SpinorField.zero(grid, N), SpinorField([mixed_field, zero_field])),
    ]
    for zero, mixed in cases:
        require_even(zero, "zero")
        require_odd(zero, "zero")
        with pytest.raises(ParityError, match="^x must be even$"):
            require_even(mixed, "x")
        with pytest.raises(ParityError, match="^x must be odd$"):
            require_odd(mixed, "x")
    # A spinor with one even and one odd component is mixed as a whole.
    split = SpinorField([GrassmannField(grid, N, {0: np.sin(x)}),
                         GrassmannField(grid, N, {0b1: np.cos(x)})])
    for check in (require_even, require_odd):
        with pytest.raises(ParityError):
            check(split, "spinor")
    require_even(generator(N, 1) * generator(N, 2), "even")
    require_odd(generator(N, 3), "odd")


@settings(max_examples=200, deadline=None)
@given(_elements(), st.integers(0, 3))
def test_parity_agrees_across_the_three_classes(a, slot):
    # One element seen as a number, a constant field and a superfunction in
    # slot eta^slot: the odd coordinates add |slot| to every degree.
    grid = Grid((3,), (3.0,))
    field = GrassmannField.constant(grid, a)
    sf = SuperFunction(grid, 2, N, {slot: field})
    p = a.parity()
    assert field.parity() is p
    assert SuperFunction.from_even(grid, 2, N, field).parity() is p
    flipped = {Parity.EVEN: Parity.ODD, Parity.ODD: Parity.EVEN, Parity.MIXED: Parity.MIXED}
    expected = flipped[p] if slot.bit_count() % 2 and not a.is_zero() else p
    assert sf.parity() is expected
    # scale_by_parity(1, -1) is the parity involution on every class.
    if p is not Parity.MIXED:
        sign = -1.0 if p is Parity.ODD else 1.0
        assert a.scale_by_parity(1.0, -1.0).max_abs_diff(a * sign) == 0.0
        assert field.scale_by_parity(1.0, -1.0).max_abs_diff(field * sign) == 0.0
    if expected is not Parity.MIXED:
        sign = -1.0 if expected is Parity.ODD else 1.0
        assert sf.scale_by_parity(1.0, -1.0).max_abs_diff(sf * sign) == 0.0


def test_superfunction_parity_reads_its_coefficients():
    grid = Grid((3,), (3.0,))
    even = GrassmannField.constant(grid, unit(N))
    odd = GrassmannField.constant(grid, generator(N, 1))
    # eta^1 times an odd coefficient is even; beside an even body it stays even.
    assert SuperFunction(grid, 1, N, {0: even, 1: odd}).parity() is Parity.EVEN
    assert SuperFunction(grid, 1, N, {0: odd, 1: even}).parity() is Parity.ODD
    assert SuperFunction(grid, 1, N, {0: even, 1: even}).parity() is Parity.MIXED
    assert SuperFunction(grid, 1, N, {1: even + odd}).parity() is Parity.MIXED
    assert SuperFunction(grid, 1, N).parity() is Parity.EVEN
    # The soul keeps the nilpotent part of the body slot and every odd slot.
    soul = SuperFunction(grid, 1, N, {0: even + odd, 1: even}).soul()
    assert soul.max_abs_diff(SuperFunction(grid, 1, N, {0: odd, 1: even})) == 0.0


def test_numpy_operand_on_the_left_reaches_rmul():
    grid = Grid((5,), (5.0,))
    x = grid.axis_points(0)
    number = unit(N) * 1.5 + generator(N, 1) * generator(N, 2)
    field = GrassmannField(grid, N, {0: np.sin(x), 0b101: np.cos(x)})
    sf = SuperFunction(grid, 2, N, {0: field, 0b11: field * 2.0})
    for element in (number, field, sf):
        left = np.float64(2.0) * element
        assert type(left) is type(element)
        assert left.max_abs_diff(element * 2.0) == 0.0
    # A sample array scales every coefficient pointwise, from either side.
    for weights in (np.ones(grid.shape), 1.0 + x):
        for element in (field, sf):
            left = weights * element
            assert type(left) is type(element)
            assert left.max_abs_diff(element * weights) == 0.0


def test_unit_scalars_and_zero_sums_return_an_operand(rng):
    grid = Grid((5, 4), (1.0, 2.0))
    samples = rng.normal(size=(5, 4))
    samples[0, 0] = -0.0
    field = GrassmannField(grid, N, {0: samples, 0b11: rng.normal(size=(5, 4))})
    number = GrassmannNumber(N, {0b101: 2.5, 0b1: -1.25})
    sf = SuperFunction(grid, 2, N, {0: field, 0b11: field * 0.5})
    for x in (field, number, sf):
        zero = x * 0.0
        assert zero.is_zero()
        assert x * 1 is x and x * 1.0 is x and 1.0 * x is x
        assert x + zero is x and zero + x is x and x - zero is x
    # x * -1 is -x, which has the bits of the skipped product c * -1.0,
    # signed zeros included.
    for m, a in field.terms.items():
        for neg in ((field * -1).terms[m], (-1.0 * field).terms[m], (sf * -1).terms[0].terms[m]):
            assert np.array_equal(neg, a * -1.0)
            assert np.array_equal(np.signbit(neg), np.signbit(a * -1.0))
    assert (number * -1).terms == {m: c * -1.0 for m, c in number.terms.items()}


def test_free_of_keeps_the_terms_without_the_bits(rng):
    x = GrassmannNumber(N, {0: 1.0, 0b1: 2.0, 0b10000: 3.0, 0b10001: 4.0, 0b100010: 5.0})
    assert x.free_of(0b10000).terms == {0: 1.0, 0b1: 2.0, 0b100010: 5.0}
    assert x.free_of(0b110000).terms == {0: 1.0, 0b1: 2.0}
    assert x.free_of(0).terms == x.terms
    grid = Grid((8,), (1.0,))
    f = GrassmannField(grid, N, {0: rng.normal(size=8), 0b11: rng.normal(size=8),
                                 0b10100: rng.normal(size=8)})
    assert list(f.free_of(0b100).terms) == [0, 0b11]
    assert all(f.free_of(0b100).terms[m] is f.terms[m] for m in (0, 0b11))
    # A superfunction's monomials are its odd coordinates.
    sf = SuperFunction(grid, 2, N, {0b00: f, 0b01: f, 0b11: f})
    assert list(sf.free_of(0b10).terms) == [0b00, 0b01]


def test_first_variation_keeps_a_nan_of_the_free_part():
    # The variation subtracts the free part rather than dropping it, so a NaN
    # that only the unvaried value carries still reaches the residual.
    x = GrassmannNumber(N, {0: np.array([1.0, np.nan]), 0b10000: np.array([1e-3, 2e-3])})
    residual = x.max_abs_diff(x.free_of(0b10000))
    assert residual[0] == 1e-3 and np.isnan(residual[1])


def test_fresh_generators_names_the_lowest_shared_generator():
    inputs = [generator(N, 1) * generator(N, 2), generator(N, 3) * 0.5]
    q = generator(N, 5) * 2.0 + generator(N, 6)
    assert fresh_generators([q], inputs, "q") == 0b110000
    assert fresh_generators([q], [], "q") == 0b110000
    with pytest.raises(ValueError, match="^q shares generator 2 with the unvaried inputs"):
        fresh_generators([generator(N, 5), generator(N, 2) + generator(N, 3)], inputs, "q")
