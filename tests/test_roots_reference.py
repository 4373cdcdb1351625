"""The largest quartic root against the full derivative cascade, bit for bit.

The reference keeps the earlier ``largest_root``: the inflection points of
f'' split f' into monotone pieces, every piece with a sign change is
bisected for a critical point, the critical points split f into monotone
pieces, every piece with a sign change is bisected for a root, roots
within 1e-12*max(1, |r|) of the previous kept root are dropped, and the
largest kept root is returned.  ``largest_root`` must return the same bits
for random triples of every shape and for monic quartics with arbitrary
coefficients, clustered roots and no real root.

``grid_classify`` takes its roots from ``_lockstep_largest_roots``, which
runs the common path of ``largest_root`` for many quartics at once and
sends every other quartic back to ``largest_root``.  The lockstep roots
must match the scalar ones bit for bit on regime-map grids, on hypothesis
triples and on the constructed and random quartics, and each way of
leaving the common path must be reached.  Its numpy Cauchy bound and first
point below it must equal ``_derivative_points``' bit for bit.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest

from lelab import QuarticKind, SystemParams, classify, grid_classify, largest_root
from lelab import exponents
from lelab.errors import NoRealRootError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the hypothesis test below is left out
    st = None

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


CONSTRUCTED = [
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
]


@pytest.mark.parametrize("coeffs", CONSTRUCTED)
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


# --- the lockstep path of grid_classify ---------------------------------------

def _lockstep_bits(monkeypatch, coeffs_list):
    """Roots of the given quartics as grid_classify takes them: lockstep, and
    largest_root for the lanes that leave the common path; with the reasons."""
    roots, why = exponents._lockstep_largest_roots(coeffs_list)
    bits = [_largest_root_bits(monkeypatch, c) if w else r.hex()
            for c, r, w in zip(coeffs_list, roots.tolist(), why)]
    return bits, Counter(exponents.LOCKSTEP_FALLBACKS[w] for w in why if w)


def _regime_map_grids():
    """Grids shaped like the bench regime_map ones: d = 6, 7.x, 9, 11, 12.x,
    14, 16, n = 44..50, p and q from about 1.1 to 5-7."""
    rng = random.Random(18)
    dims = [6.0, 7.0 + rng.uniform(0.2, 0.8), 9.0, 11.0, 12.0 + rng.uniform(0.2, 0.8), 14.0, 16.0]
    sizes = list(range(44, 51))
    rng.shuffle(sizes)
    for d, n in zip(dims, sizes):
        p_range = (rng.uniform(1.05, 1.3), rng.uniform(5.5, 7.0))
        q_range = (rng.uniform(1.05, 1.3), rng.uniform(5.0, 7.0))
        yield d, p_range, q_range, n


def test_grid_classify_matches_classify_on_regime_map_grids():
    fallbacks = Counter()
    for d, p_range, q_range, n in _regime_map_grids():
        reports = grid_classify(d, p_range, q_range, n)
        assert len(reports) > 900
        for rep in reports:
            single = classify(rep.params)
            assert (rep.x0_plain.hex(), rep.x0_jl.hex()) == (single.x0_plain.hex(), single.x0_jl.hex())
            assert repr(rep) == repr(single)
        coeffs = [exponents.quartic_coefficients(rep.params, kind) for kind in KINDS for rep in reports]
        fallbacks.update(w for w in exponents._lockstep_largest_roots(coeffs)[1] if w)
    assert not fallbacks  # every grid root takes the common path


def test_lockstep_matches_cascade_on_random_triples(monkeypatch):
    rng = random.Random(18)
    coeffs = [exponents.quartic_coefficients(_random_triple(rng), kind) for _ in range(2000) for kind in KINDS]
    bits, _ = _lockstep_bits(monkeypatch, coeffs)
    assert bits == [_bits(_reference_largest_root(c)) for c in coeffs]


if st is not None:
    @st.composite
    def _triples(draw):
        q = draw(st.floats(1.0, 6.0))
        p = q + draw(st.floats(0.0, 5.0))
        d = draw(st.one_of(st.integers(3, 30).map(float), st.floats(3.0, 30.0)))
        return SystemParams(p, q, d) if p * q > 1.0 else SystemParams(2.0, 2.0, d)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.lists(_triples(), min_size=1, max_size=40))
    def test_lockstep_matches_largest_root_on_hypothesis_triples(triples):
        coeffs = [exponents.quartic_coefficients(params, kind) for kind in KINDS for params in triples]
        roots, why = exponents._lockstep_largest_roots(coeffs)
        for (params, kind), r, w in zip([(t, k) for k in KINDS for t in triples], roots.tolist(), why):
            if not w:
                assert r.hex() == largest_root(params, kind).hex(), (params, kind)


def test_lockstep_matches_cascade_on_constructed_and_random_quartics(monkeypatch):
    rng = random.Random(66)
    coeffs = CONSTRUCTED + [_random_monic(rng) for _ in range(3000)]
    bits, _ = _lockstep_bits(monkeypatch, coeffs)
    assert bits == [_bits(_reference_largest_root(c)) for c in coeffs]


def _bound_lanes():
    """CONSTRUCTED, 3000 random monic quartics, quartics with disc = 36 c3^2 -
    96 c2 exactly 0, and lanes with a non-finite or overflowing coefficient."""
    rng = random.Random(25)
    lanes = CONSTRUCTED + [_random_monic(rng) for _ in range(3000)]
    for _ in range(200):
        k = rng.randint(-400, 400)
        lanes.append((rng.uniform(-9.0, 9.0), rng.uniform(-9.0, 9.0), 3.0 * k * k / 512.0, k / 8.0, 1.0))
    for big in (math.inf, -math.inf, math.nan, 1e200, 1e307, 1e308, -1.7e308):
        for i in range(4):
            lanes.append(tuple(big if j == i else 0.5 for j in range(4)) + (1.0,))
    return lanes


def test_lockstep_bounds_match_derivative_points():
    lanes = _bound_lanes()
    with np.errstate(all="ignore"):
        x_hi, below = exponents._lockstep_bounds(np.array(lanes).T)
    shapes = Counter()
    for c, hi, first in zip(lanes, x_hi.tolist(), below.tolist()):
        if not all(math.isfinite(x) for x in c):
            assert not math.isfinite(hi), c  # the lane goes to largest_root
            shapes["non-finite"] += 1
            continue
        ref_hi, points = exponents._derivative_points(c)
        assert (hi.hex(), first.hex()) == (ref_hi.hex(), points[1].hex()), c
        disc = 36.0 * c[3] * c[3] - 96.0 * c[2]
        shapes["disc > 0" if disc > 0.0 else "disc = 0" if disc == 0.0 else "other disc"] += 1
        shapes["below = -x_hi"] += first == -hi
    assert min(shapes[k] for k in ("disc > 0", "disc = 0", "other disc", "non-finite", "below = -x_hi")) >= 10, shapes
    why = exponents._lockstep_largest_roots(lanes)[1]
    assert [w == 5 for w in why] == [not all(math.isfinite(x) for x in c) for c in lanes]


def test_lockstep_fallbacks_by_reason(monkeypatch):
    rng = random.Random(66)
    coeffs = CONSTRUCTED + [_random_monic(rng) for _ in range(3000)]
    _, fallbacks = _lockstep_bits(monkeypatch, coeffs)
    assert fallbacks == {
        "exact zero at a bracket end": 243,
        "no sign change on the first piece": 791,
        "root inside the dedupe window": 7,
    }, fallbacks
    # The first critical point lies strictly between the ends of its piece,
    # which lie in [-x_hi, x_hi], so the scalar scan's bound test never
    # drops it for a genuine bound.  A bound that excludes the lower end of
    # the piece shows that the lockstep path keeps that test too.
    monkeypatch.setattr(exponents, "_lockstep_bounds", lambda c: (np.array([1.0]), np.array([-5.0])))
    roots, why = exponents._lockstep_largest_roots([(0.0, 64.0, 0.0, 0.0, 1.0)])  # f' = 4x^3 + 64: x = -2.52
    assert exponents.LOCKSTEP_FALLBACKS[why[0]] == "critical point outside (-x_hi, x_hi)"


def test_lockstep_bisection_stops_where_bisect_root_does():
    mid = float.fromhex("0x1.2309ce54p+0")
    assert 1e-13 * mid == 2.0**-43
    lanes = [  # (lo, hi, root of f(x) = x - root)
        # halves down to [0, 1e-13] exactly: the absolute stop test meets its bound
        (0.0, 1e-13 * 2.0**10, 0.25e-13),
        # halves down to width 2**-43 around mid: the relative stop test meets its bound
        (mid - 2.0**-44, mid - 2.0**-44 + 2.0**-33, mid - 2.0**-44 + 2.0**-46),
        # the first midpoint is the root, exactly 1e-12 above lo: inside the dedupe window
        (0.0, 2e-12, 1e-12),
    ]
    rng = random.Random(18)
    for _ in range(300):
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + 10.0 ** rng.uniform(-12.5, 1.0)
        lanes.append((lo, hi, rng.uniform(lo, hi)))
    lo, hi, root = (np.array(col) for col in zip(*lanes))
    c = (-root, np.ones_like(root), 0.0, 0.0, 0.0)
    why = np.zeros(len(lanes), dtype=int)
    got = exponents._lockstep_piece(c, lo, hi, why)
    for k, (a, b, r) in enumerate(lanes):
        line = (-r, 1.0, 0.0, 0.0, 0.0)
        want = exponents.bisect_root(line, a, b, exponents._horner(line, a), exponents._horner(line, b))
        assert got[k].hex() == want.hex(), lanes[k]
        # _roots_from_right yields the root at once only outside the dedupe window
        assert why[k] == (0 if want - a > 1e-12 * max(1.0, abs(want)) else 4), lanes[k]
    assert why[2] == 4
