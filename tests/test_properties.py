"""Properties of the closed forms and the regime map over random triples."""

import pytest

from lelab import (
    QuarticKind,
    SystemParams,
    classify,
    jl_margin,
    jl_threshold_dimension,
    largest_root,
    quartic_eval,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def triples(draw):
    q = draw(st.floats(1.0, 6.0))
    p = q + draw(st.floats(0.0, 5.0))
    assume(p * q >= 1.01)
    d = draw(st.one_of(st.integers(3, 30).map(float), st.floats(3.0, 30.0)))
    return SystemParams(p, q, d)


@PROPERTY
@given(triples())
def test_jl_root_gives_the_threshold_dimension(params):
    # jl_threshold_dimension is 2 + 2 x0_jl; the margin in d changes sign there
    p, q = params.p, params.q
    d_star = jl_threshold_dimension(p, q)
    assert jl_margin(SystemParams(p, q, d_star * (1.0 - 1e-10))) < 0.0
    assert jl_margin(SystemParams(p, q, d_star * (1.0 + 1e-10))) > 0.0


@PROPERTY
@given(triples())
def test_jl_root_is_not_below_plain_root(params):
    # the quartics differ by g (g - 2 x^2) with g = gamma^2 / 4 >= 0, which
    # is negative at the plain root, so the JL root lies on or above it
    x0_plain = largest_root(params, QuarticKind.PLAIN_H)
    x0_jl = largest_root(params, QuarticKind.JOSEPH_LUNDGREN)
    assert x0_plain <= x0_jl + 1e-12 * max(1.0, abs(x0_jl))


@PROPERTY
@given(triples(), st.sampled_from(list(QuarticKind)))
def test_quartic_is_positive_above_largest_root(params, kind):
    x0 = largest_root(params, kind)
    assert quartic_eval(params, kind, x0 + 1e-9 * max(1.0, abs(x0))) > 0.0


@PROPERTY
@given(triples(), triples())
def test_classify_is_pure(params, other):
    first = repr(classify(params))
    classify(other)
    assert repr(classify(params)) == first
