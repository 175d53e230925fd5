"""Planted defects: each report row must fail when the code it checks is wrong.

Every entry patches one defect into the library, reruns only the suites it
names and requires each listed row to fail.  A defect written as a source
edit recompiles the patched function from its own source, so the entry
breaks loudly if that source no longer holds the text it edits.
"""

import inspect
import textwrap
from functools import lru_cache

import pytest

from supersigma import berezin, deformations, grassmann, sigma2d, suites
from supersigma.config import SuiteConfig
from supersigma.spin_surface import GravitinoField
from supersigma.superdomain import SuperFunction


def _edited(func, old: str, new: str):
    """``func`` recompiled from its source with ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{func.__qualname__} no longer holds {old!r}"
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"),
         vars(inspect.getmodule(func)), namespace)
    return namespace[func.__name__]


def _no_koszul_sign(monkeypatch):
    monkeypatch.setattr(grassmann, "_flip_mask", lambda a: 0)


def _flip_mask_one_bit_too_far(monkeypatch):
    monkeypatch.setattr(grassmann, "_flip_mask",
                        _edited(grassmann._flip_mask, "x = a >> 1", "x = a >> 2"))


def _no_overlap_test(monkeypatch):
    # A product of monomials that share a generator no longer vanishes.
    mul = grassmann.GradedElement.__mul__
    monkeypatch.setattr(grassmann.GradedElement, "__mul__",
                        _edited(mul, "if ma & mb:", "if False:"))


def _private_band_cache(monkeypatch):
    # The clean run cached the right design matrices under the same keys, and
    # the wrong ones must not outlive the test: a defect in them runs on a
    # cache of its own, which the monkeypatch drops with it.
    monkeypatch.setattr(deformations, "_band_matrices",
                        lru_cache(maxsize=2)(deformations._band_matrices.__wrapped__))


def _pair_fill_without_conjugate(monkeypatch):
    # Each conjugate partner mode gets pinv A(m) where pinv A(-m) belongs.
    monkeypatch.setattr(deformations, "_paired_pinv",
                        _edited(deformations._paired_pinv, ".conj()", ""))
    _private_band_cache(monkeypatch)


def _metric_conformal_column_without_g22(monkeypatch):
    # The conformal direction lambda g forgets its g22 entry.
    monkeypatch.setattr(deformations, "_metric_columns",
                        _edited(deformations._metric_columns, "A[..., 0, 0] = A[..., 2, 0] = 1.0",
                                "A[..., 0, 0] = 1.0"))
    _private_band_cache(monkeypatch)


def _gravitino_susy_column_kap1_twice(monkeypatch):
    # The susy direction of chi_2 takes d_1 q where d_2 q belongs.
    monkeypatch.setattr(deformations, "_gravitino_columns",
                        _edited(deformations._gravitino_columns, "(1j * kap2)", "(1j * kap1)"))
    _private_band_cache(monkeypatch)


def _energy_without_winding(monkeypatch):
    # The real-space Dirichlet energy forgets the winding part of the map.
    monkeypatch.setattr(sigma2d, "_dirichlet_energy",
                        _edited(sigma2d._dirichlet_energy, " + winding[t, k]", ""))


def _top_without_eta2_eta1_pair(monkeypatch):
    # The eta^1 eta^2 coefficient of a product forgets the pair (eta^2, eta^1).
    monkeypatch.setattr(SuperFunction, "product_coefficient",
                        _edited(SuperFunction.product_coefficient,
                                "if ma & mb or", "if ma == 0b10 or ma & mb or"))


def _replace_everywhere(monkeypatch, modules, name, func):
    # The suites call the library through names they imported.
    for module in modules:
        monkeypatch.setattr(module, name, func)


def _super_current_scaled(monkeypatch):
    current = sigma2d.super_current

    def scaled(*args, **kwargs):
        return GravitinoField([s * 1.5 for s in current(*args, **kwargs).chi])

    _replace_everywhere(monkeypatch, (sigma2d, suites), "super_current", scaled)


def _super_current_without_c5(monkeypatch):
    # J loses its 2 c5 <psi, psi> gamma^b gamma^a chi_b term.
    _replace_everywhere(monkeypatch, (sigma2d, suites), "super_current",
                        _edited(sigma2d.super_current, "if not chi.is_zero():", "if False:"))


def _metric_variation_full_step(monkeypatch):
    # The frame moves by f - eps E f, the frame of g + 2 eps E.
    _replace_everywhere(monkeypatch, (sigma2d, suites), "energy_momentum",
                        _edited(sigma2d.energy_momentum, "np.full(fields.grid.shape, -0.5)",
                                "np.full(fields.grid.shape, -1.0)"))


def _gravitino_variation_plus_fq(monkeypatch):
    # delta chi_a takes +f_a q where -nabla^S q belongs.
    monkeypatch.setattr(sigma2d, "susy_gravitino_variation",
                        _edited(sigma2d.susy_gravitino_variation, "dchi_a = -fq[a - 1]",
                                "dchi_a = fq[a - 1]"))


def _dpsi_without_psi_chi(monkeypatch):
    # delta psi forgets its gravitino term <psi, chi_a> gamma^a q.
    monkeypatch.setattr(sigma2d, "susy_fields",
                        _edited(sigma2d.susy_fields, " + pairing(fields.psi[t], chi[a])", ""))


def _term4_gamma_ba(monkeypatch):
    # The gravitino-matter coupling rotates chi_a by gamma^b gamma^a.
    monkeypatch.setattr(sigma2d, "_action_summands",
                        _edited(sigma2d._action_summands, "GAMMA_PRODUCTS[a, b]",
                                "GAMMA_PRODUCTS[b, a]"))


def _term4_negated(monkeypatch):
    # The gravitino-matter coupling enters with the opposite sign, so the
    # invariant action has c4 = -2.
    monkeypatch.setattr(sigma2d, "_action_summands",
                        _edited(sigma2d._action_summands, "pairing(rotated, fields.psi[t]))",
                                "pairing(rotated, fields.psi[t]) * -1.0)"))


def _berezin_reads_body(monkeypatch):
    # The odd integral reads the eta-free coefficient instead of the top one.
    _replace_everywhere(monkeypatch, (berezin, suites), "berezin_integrate",
                        _edited(berezin.berezin_integrate, "f.coefficient((1 << f.n_odd) - 1)",
                                "f.coefficient(0)"))


# (defect, suites to rerun, rows that must fail)
DEFECTS = {
    "flip-mask-zero": (_no_koszul_sign, ["grassmann"],
                       {"grassmann-graded-commutativity", "grassmann-nilpotency"}),
    "flip-mask-shifted": (_flip_mask_one_bit_too_far, ["grassmann"],
                          {"grassmann-graded-commutativity", "grassmann-nilpotency"}),
    "product-without-overlap-test": (_no_overlap_test, ["grassmann"],
                                     {"grassmann-associativity",
                                      "grassmann-graded-commutativity",
                                      "grassmann-nilpotency"}),
    # The reassembly rows still pass: a fit with wrong parameters leaves a
    # residual that makes up the difference.
    "pair-fill-without-conjugate": (_pair_fill_without_conjugate, ["decompose"],
                                    {"decompose-metric-trace-free",
                                     "decompose-metric-divergence-free",
                                     "decompose-gravitino-gamma-trace-free"}),
    # The dimension rows count the nullity of the same design matrices the
    # split solves with, so a wrong column shows there too.
    "metric-conformal-column-without-g22": (_metric_conformal_column_without_g22, ["decompose"],
                                            {"decompose-metric-reassembly",
                                             "decompose-metric-trace-free",
                                             "decompose-true-dimensions",
                                             "decompose-dimensions-refinement-stable"}),
    "gravitino-susy-column-kap1-twice": (_gravitino_susy_column_kap1_twice, ["decompose"],
                                         {"decompose-gravitino-reassembly",
                                          "decompose-true-dimensions",
                                          "decompose-dimensions-refinement-stable"}),
    "flow-energy-without-winding": (_energy_without_winding, ["flow"], {"flow-final-energy"}),
    "top-coefficient-without-eta2-eta1": (_top_without_eta2_eta1_pair, ["reduction"],
                                          {"reduction-superfield-component"}),
    "super-current-times-1.5": (_super_current_scaled, ["currents"],
                                {"currents-super-current-noether"}),
    "super-current-without-c5": (_super_current_without_c5, ["currents"],
                                 {"currents-super-current-noether"}),
    "metric-variation-full-step": (_metric_variation_full_step, ["currents"],
                                   {"currents-energy-momentum-closed-form"}),
    "berezin-reads-body": (_berezin_reads_body, ["berezin"],
                           {"berezin-top-coefficient-reduction"}),
    # Every other susy2d row has a constant q, whose f_a q vanishes.
    "gravitino-variation-plus-fq": (_gravitino_variation_plus_fq, ["susy2d"],
                                    {"susy2d-invariance-local-q"}),
    # The chi-zero row passes: the lost term vanishes with chi.
    "susy-dpsi-without-psi-chi": (_dpsi_without_psi_chi, ["susy2d"],
                                  {"susy2d-calibration-residual",
                                   "susy2d-coefficients-derived",
                                   "susy2d-invariance-chi-nonzero"}),
    "action-term4-gamma-ba": (_term4_gamma_ba, ["susy2d"],
                              {"susy2d-calibration-residual", "susy2d-coefficients-derived"}),
    "action-term4-negated": (_term4_negated, ["susy2d"],
                             {"susy2d-calibration-matches-config",
                              "susy2d-coefficients-derived"}),
}


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_planted_defect_fails_its_rows(monkeypatch, defect):
    plant, suite_names, must_fail = DEFECTS[defect]
    config = SuiteConfig()
    clean = [c for name in suite_names for c in suites.run_suite(config, name)]
    assert all(c.passed for c in clean)
    plant(monkeypatch)
    checks = [c for name in suite_names for c in suites.run_suite(config, name)]
    failed = {c.name for c in checks if not c.passed}
    assert must_fail <= failed, sorted(must_fail - failed)
