import numpy as np
import pytest

from supersigma.grassmann import GrassmannNumber, ParityError, generator, unit
from supersigma.gridfield import GrassmannField, Grid
from supersigma.superdomain import Embedding, apply_D, apply_Q, restrict
from supersigma.toy_model import (
    ToyFields,
    _superfield_integrand,
    superfield_from_fields,
    toy_action_component,
    toy_action_superfield,
    toy_embedding_residual,
    toy_invariance_residual,
    toy_susy,
    toy_susy_geometric,
)

from conftest import N_GEN, even_field, odd_field, stack, susy_vector_field


@pytest.fixture
def grid():
    return Grid((64,), (2.0 * np.pi,))


def toy_fixture(rng, grid):
    return ToyFields(even_field(rng, grid, soul_mask=0b11),
                     odd_field(rng, grid, [1, 2]))


def test_superfield_component_roundtrip(rng, grid):
    f = toy_fixture(rng, grid)
    Phi = superfield_from_fields(f)
    assert Phi.coefficient(0).max_abs_diff(f.phi) == 0.0
    assert Phi.coefficient(1).max_abs_diff(f.psi) == 0.0


def test_action_equivalence(rng, grid):
    for _ in range(10):
        f = toy_fixture(rng, grid)
        a_comp = toy_action_component(f)
        a_super = toy_action_superfield(superfield_from_fields(f))
        assert a_comp.max_abs_diff(a_super) < 1e-12


def test_closed_form_action(grid):
    x = grid.axis_points(0)
    f = ToyFields(
        GrassmannField(grid, N_GEN, {0: np.sin(x)}),
        GrassmannField(grid, N_GEN, {0b01: np.cos(x), 0b10: np.sin(x)}),
    )
    expected = unit(N_GEN) * (np.pi / 2.0) \
        + generator(N_GEN, 1) * generator(N_GEN, 2) * np.pi
    assert toy_action_component(f).max_abs_diff(expected) < 1e-12
    assert toy_action_superfield(superfield_from_fields(f)).max_abs_diff(expected) < 1e-12


def test_susy_invariance(rng, grid):
    for _ in range(10):
        f = toy_fixture(rng, grid)
        q = generator(N_GEN, 5) * float(rng.normal())
        assert toy_invariance_residual(f, q) < 1e-12


def test_susy_geometric_agreement(rng, grid):
    f = toy_fixture(rng, grid)
    q = generator(N_GEN, 5) * 0.8
    d1, d2 = toy_susy(f, q), toy_susy_geometric(f, q)
    assert d1.phi.max_abs_diff(d2.phi) < 1e-13
    assert d1.psi.max_abs_diff(d2.psi) < 1e-13


def test_susy_geometric_matches_q_of_d_phi_bitwise(rng, grid):
    # toy_susy_geometric takes d_x D Phi as D d_x Phi; that must give the
    # same bits as differentiating D Phi itself inside Q.
    f = toy_fixture(rng, grid)
    q = generator(N_GEN, 5) * 0.8
    zero = Embedding(xi=[GrassmannField.zero(grid, N_GEN)])
    direct = restrict(apply_Q(apply_D(superfield_from_fields(f)), q), zero)
    psi = toy_susy_geometric(f, q).psi
    assert list(psi.terms) == list(direct.terms)
    for m, a in direct.terms.items():
        assert np.array_equal(psi.terms[m], a)


def test_embedding_independence(rng, grid):
    f = toy_fixture(rng, grid)
    xi = odd_field(rng, grid, [6])
    integrand = _superfield_integrand(superfield_from_fields(f))
    assert toy_embedding_residual(integrand, xi) < 1e-12


def test_susy_requires_odd_parameter(rng, grid):
    f = toy_fixture(rng, grid)
    with pytest.raises(ParityError):
        toy_susy(f, unit(N_GEN))


def test_zero_parameter_gives_zero_variation(rng, grid):
    # Zero counts as odd, so every supersymmetry entry point accepts q = 0.
    f = toy_fixture(rng, grid)
    zero = GrassmannNumber(N_GEN)
    d = toy_susy(f, zero)
    assert d.phi.is_zero() and d.psi.is_zero()
    Phi = superfield_from_fields(f)
    assert apply_Q(Phi, zero).max_abs() == 0.0
    assert susy_vector_field(grid, N_GEN, zero).apply(Phi).max_abs() == 0.0


def test_fields_parity_checked(rng, grid):
    with pytest.raises(ParityError):
        ToyFields(odd_field(rng, grid, [1]), odd_field(rng, grid, [2]))
    with pytest.raises(ParityError):
        ToyFields(even_field(rng, grid), even_field(rng, grid))


def test_each_toy_call_differentiates_each_field_once(rng, grid, derivative_log):
    f = toy_fixture(rng, grid)
    q = generator(N_GEN, 5) * 0.7
    xi = odd_field(rng, grid, [6], scale=0.8)
    # (call, derivatives taken): phi and psi once each; the geometric
    # variation also takes phi'' (for d_x D Phi = D d_x Phi); the invariance
    # residual takes phi (for the variation) and the varied phi and psi, since
    # it evaluates the action only once; the embedding residual takes none
    # beyond those of the integrand it is given.
    calls = [
        (lambda: toy_action_component(f), 2),
        (lambda: toy_action_superfield(superfield_from_fields(f)), 2),
        (lambda: toy_susy(f, q), 1),
        (lambda: toy_susy_geometric(f, q), 3),
        (lambda: toy_invariance_residual(f, q), 3),
        (lambda: toy_embedding_residual(
            _superfield_integrand(superfield_from_fields(f)), xi), 2),
    ]
    for call, expected in calls:
        derivative_log.clear()
        call()
        pairs = [(id(field), axis) for field, axis in derivative_log]
        assert len(set(pairs)) == len(pairs) == expected


def stacked_toy_fixture(rng, grid, count):
    """``count`` toy fixtures stacked on a leading axis, and a q with one
    coefficient per fixture on generator 5, as the toy suite draws them."""
    fixtures = [toy_fixture(rng, grid) for _ in range(count)]
    phi, psi = (stack([getattr(f, name) for f in fixtures]) for name in ("phi", "psi"))
    return ToyFields(phi, psi), GrassmannNumber(N_GEN, {1 << 4: rng.normal(size=count)})


def test_q_free_part_of_the_varied_toy_action_is_the_action(rng, grid):
    cases = [(toy_fixture(rng, grid), generator(N_GEN, 5) * 0.8),
             (toy_fixture(rng, grid), generator(N_GEN, 5) * 0.3 + generator(N_GEN, 6) * 0.4),
             stacked_toy_fixture(rng, grid, 4)]
    for f, q in cases:
        a1 = toy_action_component(f + toy_susy(f, q))
        a0 = toy_action_component(f)
        assert list(a1.free_of(0b110000).terms) == list(a0.terms)  # generators 5 and 6
        for m, c in a0.terms.items():
            assert np.array_equal(a1.terms[m], c)
        assert np.array_equal(toy_invariance_residual(f, q), a1.max_abs_diff(a0))


def test_toy_residual_rejects_q_sharing_a_generator(rng, grid):
    f = toy_fixture(rng, grid)
    for q, g in [(generator(N_GEN, 1), 1), (generator(N_GEN, 2) * 0.5 + generator(N_GEN, 5), 2),
                 (generator(N_GEN, 1) * generator(N_GEN, 2) * generator(N_GEN, 5), 1)]:
        with pytest.raises(ValueError, match=f"q shares generator {g} with the unvaried"):
            toy_invariance_residual(f, q)


def test_embedding_residual_is_the_same_for_every_xi(rng, grid):
    # xi reaches only the eta~-free slot, which the Berezin integral does not
    # read: the residual is the interpolation round-off of the top coefficient.
    integrand = _superfield_integrand(superfield_from_fields(toy_fixture(rng, grid)))
    xi = odd_field(rng, grid, [6])
    residuals = [toy_embedding_residual(integrand, x)
                 for x in (GrassmannField.zero(grid, N_GEN), xi, xi * 1e6)]
    assert residuals[0] == residuals[1] == residuals[2] < 1e-12
