"""Planted defects: each report row must fail when the code it checks is wrong.

Every entry patches one defect into the library, reruns only the suites it
names and requires each listed row to fail.  A defect written as a source
edit recompiles the patched function from its own source, so the entry
breaks loudly if that source no longer holds the text it edits.
"""

import inspect
import textwrap
from collections import OrderedDict

import pytest

from supersigma import deformations, grassmann, sigma2d, suites
from supersigma.config import SuiteConfig
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


def _pair_fill_without_conjugate(monkeypatch):
    # Each conjugate partner mode gets pinv A(m) where pinv A(-m) belongs.
    monkeypatch.setattr(deformations, "_paired_pinv",
                        _edited(deformations._paired_pinv, ".conj()", ""))
    # The clean run cached the right pseudo-inverses under the same keys.
    monkeypatch.setattr(deformations, "_PINV_CACHE", OrderedDict())


def _energy_without_winding(monkeypatch):
    # The real-space Dirichlet energy forgets the winding part of the map.
    monkeypatch.setattr(sigma2d, "_dirichlet_energy",
                        _edited(sigma2d._dirichlet_energy, " + winding[t, k]", ""))


def _top_without_eta2_eta1_pair(monkeypatch):
    # The eta^1 eta^2 coefficient of a product forgets the pair (eta^2, eta^1).
    monkeypatch.setattr(SuperFunction, "product_coefficient",
                        _edited(SuperFunction.product_coefficient,
                                "if ma & mb or", "if ma == 0b10 or ma & mb or"))


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
    "flow-energy-without-winding": (_energy_without_winding, ["flow"], {"flow-final-energy"}),
    "top-coefficient-without-eta2-eta1": (_top_without_eta2_eta1_pair, ["reduction"],
                                          {"reduction-superfield-component"}),
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
