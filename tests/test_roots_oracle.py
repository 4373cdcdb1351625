"""largest_root against a 50-digit mpmath oracle, and the dedupe rule at a root pair."""

import random

import pytest

from lelab import QuarticKind, SystemParams, largest_root
from lelab import exponents

mpmath = pytest.importorskip("mpmath")


def _real_roots(coeffs):
    """Real roots of the monic quartic with the given float coefficients, at 50 digits."""
    c0, c1, c2, c3, c4 = coeffs
    with mpmath.workdps(50):
        roots = mpmath.polyroots([c4, c3, c2, c1, c0], maxsteps=100, extraprec=60)
        return sorted(float(mpmath.re(z)) for z in roots
                      if abs(mpmath.im(z)) <= mpmath.mpf(10) ** -40 * max(1, abs(z)))


def test_largest_root_matches_mpmath_oracle():
    rng = random.Random(1206)
    for _ in range(100):
        q = rng.uniform(1.0, 6.0)
        params = SystemParams(q + rng.uniform(0.0, 5.0), q, rng.uniform(3.0, 30.0))
        for kind in (QuarticKind.PLAIN_H, QuarticKind.JOSEPH_LUNDGREN):
            x0 = largest_root(params, kind)
            exact = _real_roots(exponents.quartic_coefficients(params, kind))[-1]
            assert abs(x0 - exact) <= 1e-12 * max(1.0, abs(x0)), (params, kind)


def test_roots_within_1e_12_return_the_smaller(monkeypatch):
    # x^4 + x^2 - 1e-26 has real roots at about -1e-13 and +1e-13 (and +-i):
    # the pair lies within 1e-12, so the dedupe keeps the smaller one
    coeffs = (-1e-26, 0.0, 1.0, 0.0, 1.0)
    lower, upper = _real_roots(coeffs)
    assert 0.0 < upper - lower < 1e-12
    monkeypatch.setattr(exponents, "quartic_coefficients", lambda params, kind: coeffs)
    x0 = largest_root(SystemParams(3, 3, 13), QuarticKind.PLAIN_H)
    assert x0 < 0.0
    assert abs(x0 - lower) <= 1e-13
    assert abs(x0 - upper) <= 1e-12
