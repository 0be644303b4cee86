"""Fuzz and property tests for the mathx curve-fitting stack.

The runtime's CPI models are rebuilt from noisy observations every
interval, so the fitters must behave on *any* data the simulator can
produce: duplicated or unsorted knots, near-coincident abscissae, flat
and monotone-violating ordinates, huge and tiny magnitudes.  Hypothesis
hunts for inputs that break:

* fitter totals: finite in, finite out; interpolation hits the knots,
* clamp extrapolation stays within the knot ordinate range,
* PCHIP monotonicity on monotone data (its whole reason to exist),
* isotonic regression idempotence, ordering and mean preservation,
* bitwise agreement of the scalar fast paths with the vectorised
  evaluators — the property model-based policy replay depends on for
  byte-identical results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mathx.isotonic import isotonic_nonincreasing
from repro.mathx.pchip import PchipSpline1D
from repro.mathx.spline import CubicSpline1D, LinearModel1D, fit_cpi_model

_ords = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def _knots(draw, min_size=1, max_size=12, distinct=True):
    """(x, y) arrays; x strictly increasing when ``distinct``.

    Abscissae come from a 1e-3 grid: in the simulator they are way
    counts (small integers), so sub-denormal knot spacing — where secant
    slopes genuinely overflow — is outside the fitters' contract.
    """
    n = draw(st.integers(min_size, max_size))
    xs = draw(
        st.lists(
            st.integers(min_value=-(10**9), max_value=10**9).map(lambda i: i * 1e-3),
            min_size=n,
            max_size=n,
            unique=distinct,
        )
    )
    ys = draw(st.lists(_ords, min_size=n, max_size=n))
    order = np.argsort(xs)
    return np.asarray(xs, dtype=np.float64)[order], np.asarray(ys, dtype=np.float64)[order]


@settings(max_examples=120, deadline=None)
@given(data=_knots(), queries=st.lists(_ords, min_size=1, max_size=16))
def test_fit_cpi_model_total_on_arbitrary_knots(data, queries):
    x, y = data
    model = fit_cpi_model(x, y)
    out = model(np.asarray(queries))
    assert np.all(np.isfinite(out))
    # Clamp extrapolation can never leave the ordinate envelope... for the
    # linear fitter.  A cubic may overshoot *between* knots but never at
    # them; knot evaluation must reproduce the data.
    at_knots = model(x)
    # The absolute tolerance must scale with the ordinate magnitude: a
    # knot set mixing 0 with ~1e9 cannot reproduce the zero knot to 1e-9
    # absolute in float64 (machine epsilon at 1e9 is ~1e-7).
    scale = max(1.0, float(np.max(np.abs(y))))
    assert np.allclose(at_knots, y, rtol=1e-9, atol=1e-9 * scale)


@settings(max_examples=120, deadline=None)
@given(data=_knots(min_size=2, max_size=10))
def test_pchip_is_monotone_on_monotone_data(data):
    x, y = data
    y = np.sort(y)[::-1]  # non-increasing ordinates
    spline = PchipSpline1D(x, y)
    dense = np.linspace(float(x[0]), float(x[-1]), 257)
    vals = spline(dense)
    assert np.all(np.diff(vals) <= 1e-9 * (1 + np.abs(vals[:-1]))), (
        "PCHIP overshot on monotone data"
    )
    lo, hi = float(np.min(y)), float(np.max(y))
    assert np.all(vals >= lo - 1e-9 * (1 + abs(lo)))
    assert np.all(vals <= hi + 1e-9 * (1 + abs(hi)))


@settings(max_examples=120, deadline=None)
@given(
    data=_knots(min_size=1, max_size=10),
    queries=st.lists(_ords, min_size=1, max_size=32),
)
def test_scalar_fast_paths_bitwise_match_array_paths(data, queries):
    """float(model(q)) must equal model(np.array([q]))[0] to the last ulp.

    The runtime calls the models one scalar at a time while other
    callers may batch; the differential-equivalence contract therefore
    needs these to agree exactly, not approximately.
    """
    x, y = data
    models = [fit_cpi_model(x, y)]
    if x.size >= 2:
        models.append(PchipSpline1D(x, y))
        models.append(LinearModel1D(x=x[:2], y=y[:2]))
    if x.size >= 3:
        models.append(CubicSpline1D(x, y))
        models.append(PchipSpline1D(x, y, extrapolation="linear"))
        models.append(CubicSpline1D(x, y, extrapolation="linear"))
    for model in models:
        for q in queries:
            scalar = model(q)
            batched = model(np.asarray([q], dtype=np.float64))[0]
            assert isinstance(scalar, float)
            assert scalar == batched or (np.isnan(scalar) and np.isnan(batched)), (
                f"{type(model).__name__}({q!r}): scalar {scalar!r} != array {batched!r}"
            )


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(_ords, min_size=0, max_size=24),
    use_weights=st.booleans(),
    data=st.data(),
)
def test_isotonic_nonincreasing_properties(values, use_weights, data):
    v = np.asarray(values, dtype=np.float64)
    w = None
    if use_weights and v.size:
        w = np.asarray(
            data.draw(
                st.lists(
                    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, width=64),
                    min_size=v.size,
                    max_size=v.size,
                )
            )
        )
    out = isotonic_nonincreasing(v, w)
    assert out.shape == v.shape
    if v.size == 0:
        return
    assert np.all(np.isfinite(out))
    assert np.all(np.diff(out) <= 1e-12 * np.maximum(1.0, np.abs(out[:-1])))
    # Projection preserves the (weighted) mean and is idempotent.
    weights = np.ones_like(v) if w is None else w
    assert np.isclose(np.dot(out, weights), np.dot(v, weights), rtol=1e-6, atol=1e-6)
    again = isotonic_nonincreasing(out, w)
    assert np.allclose(again, out, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# Deterministic degenerate-input checks (fast, no hypothesis)
# ----------------------------------------------------------------------


def test_fitters_reject_pathological_inputs():
    with pytest.raises(ValueError):
        fit_cpi_model([], [])
    with pytest.raises(ValueError):
        fit_cpi_model([1.0, 2.0], [np.nan, 0.0])
    with pytest.raises(ValueError):
        fit_cpi_model([np.inf], [1.0])
    with pytest.raises(ValueError):
        PchipSpline1D([1.0], [2.0])
    with pytest.raises(ValueError):
        PchipSpline1D([1.0, 1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        CubicSpline1D([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        isotonic_nonincreasing([[1.0, 2.0]])
    with pytest.raises(ValueError):
        isotonic_nonincreasing([1.0], weights=[0.0])


def test_duplicate_knots_collapse_to_mean():
    model = fit_cpi_model([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert model(2.0) == pytest.approx(2.0)
    assert model(-100.0) == pytest.approx(2.0)  # constant model clamps everywhere


def test_near_coincident_knots_stay_finite():
    x = np.array([1.0, 1.0 + 1e-12, 2.0, 3.0])
    y = np.array([5.0, -5.0, 1.0, 0.0])
    for model in (fit_cpi_model(x, y), PchipSpline1D(x, y)):
        out = model(np.linspace(0.0, 4.0, 101))
        assert np.all(np.isfinite(out))


def test_denormal_secants_do_not_poison_pchip():
    tiny = 5e-324
    spline = PchipSpline1D([0.0, 1.0, 2.0], [0.0, tiny, 0.0])
    out = spline(np.linspace(0.0, 2.0, 33))
    assert np.all(np.isfinite(out))
