"""Precision of scipy.special's Phi (ndtr) and Phi^{-1} (ndtri), which the
power formulas in sirlimits.lrt treat as exact special functions."""

import math

import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr, ndtri

# Reference quantiles computed with Mathematica (independent of scipy).
EXACT_QUANTILES = [
    (0.0000001, -5.199337582187471),
    (0.00001, -4.264890793922602),
    (0.001, -3.090232306167813),
    (0.05, -1.6448536269514729),
    (0.15, -1.0364333894937896),
    (0.25, -0.6744897501960817),
    (0.35, -0.38532046640756773),
    (0.45, -0.12566134685507402),
    (0.55, 0.12566134685507402),
    (0.65, 0.38532046640756773),
    (0.75, 0.6744897501960817),
    (0.85, 1.0364333894937896),
    (0.95, 1.6448536269514729),
    (0.999, 3.090232306167813),
    (0.99999, 4.264890793922602),
    (0.9999999, 5.199337582187471),
]


@pytest.mark.parametrize("p,expected", EXACT_QUANTILES)
def test_ppf_against_reference_values(p, expected):
    # decimal tail probabilities are not exactly float-representable, so the
    # quoted reference values drift by ~1e-9 there
    tol = 1e-13 if 1e-4 < p < 1.0 - 1e-4 else 2e-9
    assert ndtri(p) == pytest.approx(expected, abs=tol)


@given(st.floats(min_value=1e-12, max_value=1 - 1e-12))
def test_cdf_ppf_roundtrip(p):
    assert ndtr(ndtri(p)) == pytest.approx(p, rel=1e-11, abs=1e-14)


@given(st.floats(min_value=1e-4, max_value=1 - 1e-4))
def test_ppf_antisymmetry(p):
    # restricted to the region where 1 - p is exactly representable at the
    # precision the assertion demands
    assert ndtri(p) == pytest.approx(-ndtri(1.0 - p), abs=1e-12)


def test_edge_cases():
    # ndtri neither raises nor warns outside (0, 1), so the lrt functions
    # check alpha themselves (tests/test_lrt.py)
    assert ndtri(0.0) == -math.inf
    assert ndtri(1.0) == math.inf
    assert ndtri(0.5) == pytest.approx(0.0, abs=1e-15)
    assert math.isnan(ndtri(-0.1))
    assert math.isnan(ndtri(1.1))
