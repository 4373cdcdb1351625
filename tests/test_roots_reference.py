"""The largest quartic root against the full derivative cascade, bit for bit.

The reference keeps the earlier ``largest_root``: the inflection points of
f'' split f' into monotone pieces, every piece with a sign change is
bisected for a critical point, the critical points split f into monotone
pieces, every piece with a sign change is bisected for a root, roots
within 1e-12*max(1, |r|) of the previous kept root are dropped, and the
largest kept root is returned.  ``largest_root`` must return the same bits
for random triples of every shape and for monic quartics with arbitrary
coefficients, clustered roots and no real root.
"""

import math
import random

import pytest

from lelab import QuarticKind, SystemParams, largest_root
from lelab import exponents
from lelab.errors import NoRealRootError

KINDS = (QuarticKind.PLAIN_H, QuarticKind.JOSEPH_LUNDGREN)


def _reference_bisect_root(f, lo, hi, flo, fhi, rel=1e-13):
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel * max(1.0, abs(mid)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _roots_on_monotone_pieces(f, breakpoints):
    roots = []
    vals = [f(x) for x in breakpoints]
    for i in range(len(breakpoints) - 1):
        lo, hi, flo, fhi = breakpoints[i], breakpoints[i + 1], vals[i], vals[i + 1]
        if flo == 0.0:
            roots.append(lo)
        if (flo < 0.0) != (fhi < 0.0) or (flo != 0.0 and fhi == 0.0):
            roots.append(_reference_bisect_root(f, lo, hi, flo, fhi))
    # dedupe near-coincident endpoint roots
    roots.sort()
    out = []
    for r in roots:
        if not out or r - out[-1] > 1e-12 * max(1.0, abs(r)):
            out.append(r)
    return out


def _reference_largest_root(coeffs):
    """Largest kept root of the monic quartic, or None when it has no real root."""
    c0, c1, c2, c3, c4 = coeffs

    def f(x):
        return (((x + c3) * x + c2) * x + c1) * x + c0

    def fp(x):
        return ((4.0 * x + 3.0 * c3) * x + 2.0 * c2) * x + c1

    x_hi = 1.0 + max(abs(c0), abs(c1), abs(c2), abs(c3))

    disc = 36.0 * c3 * c3 - 96.0 * c2
    inflections = []
    if disc > 0.0:
        s = math.sqrt(disc)
        inflections = sorted(((-6.0 * c3 - s) / 24.0, (-6.0 * c3 + s) / 24.0))
    elif disc == 0.0:
        inflections = [-c3 / 4.0]

    pieces = [-x_hi] + [x for x in inflections if -x_hi < x < x_hi] + [x_hi]
    criticals = _roots_on_monotone_pieces(fp, pieces)

    pieces = [-x_hi] + [x for x in criticals if -x_hi < x < x_hi] + [x_hi]
    roots = _roots_on_monotone_pieces(f, pieces)
    return roots[-1] if roots else None


def _bits(x):
    return None if x is None else x.hex()


def _largest_root_bits(monkeypatch, coeffs):
    """``largest_root`` run on the given monic coefficients instead of a triple's."""
    monkeypatch.setattr(exponents, "quartic_coefficients", lambda params, kind: coeffs)
    try:
        return _bits(largest_root(SystemParams(3, 3, 13), QuarticKind.PLAIN_H))
    except NoRealRootError:
        return None


def _random_triple(rng):
    q = 1.0 if rng.random() < 0.1 else rng.uniform(1.0, 6.0)
    p = q if rng.random() < 0.15 else q + rng.uniform(0.0, 5.0)
    if p * q <= 1.0:
        p = q + rng.uniform(0.01, 5.0)
    d = float(rng.randint(3, 30)) if rng.random() < 0.5 else rng.uniform(3.0, 30.0)
    return SystemParams(p, q, d)


def test_largest_root_matches_cascade_on_random_triples():
    rng = random.Random(6)
    for _ in range(3000):
        params = _random_triple(rng)
        for kind in KINDS:
            coeffs = exponents.quartic_coefficients(params, kind)
            assert largest_root(params, kind).hex() == _bits(_reference_largest_root(coeffs)), (params, kind)


@pytest.mark.parametrize("p, q", [
    (1.0 + 1e-9, 1.0), (1.5, 1.0), (5.0, 1.0), (100.0, 1.0),
    (1.0 + 1e-6, 1.0 + 1e-6), (2.0, 2.0), (3.0, 3.0), (40.0, 40.0),
])
@pytest.mark.parametrize("d", [3.0, 10.5, 13.0])
def test_largest_root_matches_cascade_at_edges(p, q, d):
    params = SystemParams(p, q, d)
    for kind in KINDS:
        coeffs = exponents.quartic_coefficients(params, kind)
        assert largest_root(params, kind).hex() == _bits(_reference_largest_root(coeffs))


@pytest.mark.parametrize("coeffs", [
    (-3.0, 1.0, 1.5, 2.0, 1.0),    # disc == 0: one inflection point at -c3/4
    (-1.0, 0.5, 1.5, 2.0, 1.0),
    (-2.0, 1.0, 1.0, 0.0, 1.0),    # disc < 0: f' increasing everywhere
    (-1e-26, 0.0, 1.0, 0.0, 1.0),  # disc < 0, roots +-1e-13 merged by the dedupe
    (1.0, 0.0, 0.0, 0.0, 1.0),     # no real root
    (5.0, -1.0, 3.0, 0.5, 1.0),    # disc < 0, no real root
    (0.0, 0.0, 0.0, 0.0, 1.0),     # x^4: every breakpoint test meets exact zeros
    (1.0, 0.0, -2.0, 0.0, 1.0),    # (x^2 - 1)^2: two exact double roots
    (0.0, 0.0, -1.0, 0.0, 1.0),    # x^2 (x^2 - 1): exact roots at breakpoints
    (24.0, -50.0, 35.0, -10.0, 1.0),  # (x-1)(x-2)(x-3)(x-4)
    # critical points near -1.2e-12, 0 and 5e-13: the sweep keeps the first
    # two, and drops the third, which lies within 1e-12 of the second
    (-1.0, 0.0, -1.2e-24, 4.0 * 0.7e-12 / 3.0, 1.0),
])
def test_largest_root_matches_cascade_on_constructed_quartics(monkeypatch, coeffs):
    assert _largest_root_bits(monkeypatch, coeffs) == _bits(_reference_largest_root(coeffs))


def _random_monic(rng):
    """Coefficients of a monic quartic with real, clustered or complex roots."""
    scale = 10.0 ** rng.uniform(-3, 3)
    roots = []
    while len(roots) < 4:
        a = rng.uniform(-1.0, 1.0) * scale
        shape = rng.random()
        if shape < 0.4:
            roots.append(complex(a))
        elif shape < 0.7:  # a cluster of real roots a few ulps to 1e-10 apart
            roots.append(complex(a))
            roots.append(complex(a * (1.0 + rng.choice((1e-15, 1e-13, 1e-12, 3e-12, 1e-10)))))
        else:
            b = rng.choice((1e-14, 1e-8, 1.0)) * scale
            roots += [complex(a, b), complex(a, -b)]
    c = [1.0 + 0j]
    for r in roots[:4]:
        c = [0j] + c
        for i in range(len(c) - 1):
            c[i] -= r * c[i + 1]
    return tuple(float(z.real) for z in c)


def test_largest_root_matches_cascade_on_random_quartics(monkeypatch):
    rng = random.Random(66)
    seen_none = 0
    for _ in range(3000):
        coeffs = _random_monic(rng)
        expected = _bits(_reference_largest_root(coeffs))
        seen_none += expected is None
        assert _largest_root_bits(monkeypatch, coeffs) == expected, coeffs
    assert seen_none > 0
