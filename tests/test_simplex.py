import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holeburn import MinimizeOptions, minimize, simplex
from holeburn.simplex import gauss_newton


def test_quadratic_1d():
    res = minimize(lambda x: (x[0] - 3.0) ** 2, [0.0])
    assert res.converged
    assert res.x[0] == pytest.approx(3.0, abs=1e-6)


def test_rosenbrock():
    def rosen(p):
        x, y = p
        return (1 - x) ** 2 + 100 * (y - x**2) ** 2

    res = minimize(rosen, [-1.2, 1.0])
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)


def test_anisotropic_quadratic():
    res = minimize(lambda p: p[0] ** 2 + 10 * p[1] ** 2, [5.0, 5.0])
    assert res.converged
    assert np.allclose(res.x, [0.0, 0.0], atol=1e-6)


def test_never_worse_than_start():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x0 = rng.normal(size=3) * 10
        res = minimize(lambda p: np.sum(np.abs(p) ** 1.5) + np.sin(p[0]),
                       x0, MinimizeOptions(max_iter=15))
        f0 = np.sum(np.abs(x0) ** 1.5) + np.sin(x0[0])
        assert res.fun <= f0


def test_iteration_cap_flags_nonconvergence():
    res = minimize(lambda p: (p[0] - 3.0) ** 2, [0.0],
                   MinimizeOptions(max_iter=2))
    assert not res.converged
    assert res.iterations == 2


def test_tiny_start_steps_by_the_absolute_floor():
    # a relative first step from 1e-30 would be ~1e-32 and stop at once
    res = minimize(lambda p: (p[0] - 1.0) ** 2, [1e-30])
    assert res.converged
    assert res.x[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("field, value", [
    ("xtol_rel", np.nan), ("xtol_rel", -1.0), ("xtol_rel", np.inf),
    ("ftol_rel", np.nan), ("ftol_rel", -1.0), ("ftol_rel", np.inf),
    ("max_iter", -1),
])
def test_options_reject_settings_that_break_the_search(field, value):
    # xtol_rel = NaN or -1 never stops either search
    with pytest.raises(ValueError, match=field):
        MinimizeOptions(**{field: value})


def test_nonfinite_start_rejected():
    with pytest.raises(ValueError):
        minimize(lambda p: np.inf, [0.0])


def counted(residual, slope):
    """A `gauss_newton` projection from a residual r(x) and its slope, as
    lists; `calls` records each x it is asked for."""
    def project(x):
        project.calls.append(x)
        r, col = residual(x), slope(x)
        return math.fsum(v * v for v in r), r, col

    project.calls = []
    return project


def test_scalar_quadratic_to_xtol():
    # a linear residual: the first step lands on the minimum, where the
    # predicted saving is below the SSE's rounding
    c, b = [1.0, -2.0, 0.5], [3.0, 1.0, -2.0]
    best = math.fsum(map(lambda u, v: u * v, b, c)) / math.fsum(
        v * v for v in c)
    project = counted(lambda x: [v - x * u for u, v in zip(c, b)],
                      lambda x: [-u for u in c])
    res = gauss_newton(project, 10.0)
    assert res.converged
    assert res.x == pytest.approx(best, rel=1e-15)
    assert res.nfev == len(project.calls) == 2
    assert res.iterations == 1


def test_scalar_iteration_cap_flags_nonconvergence(monkeypatch):
    # r = exp(x) - 3 from x = 5 needs several steps
    project = counted(lambda x: [math.exp(x) - 3.0],
                      lambda x: [math.exp(x)])
    for cap in (0, 1, 2):
        monkeypatch.setattr(simplex, "_GN_MAX_ITER", cap)
        res = gauss_newton(project, 5.0)
        assert not res.converged
        assert res.iterations == res.nfev - 1 == cap
        assert res.fun == project(res.x)[0] <= project(5.0)[0]


def test_scalar_nonfinite_start_rejected():
    for start in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            gauss_newton(lambda x: (start, [start], [1.0]), 1.0)


def test_scalar_vanished_column_stops_at_once():
    # the residual no longer moves with x: there is no step to take
    project = counted(lambda x: [1.0, 2.0], lambda x: [0.0, 0.0])
    res = gauss_newton(project, 0.7)
    assert res.converged
    assert (res.x, res.fun, res.nfev, res.iterations) == (0.7, 5.0, 1, 0)


def test_scalar_rejected_region_is_uphill():
    # log(x) is undefined at x <= 0, where the projection's SSE is NaN:
    # the first step from 10 lands at -13, and damping brings it back
    def project(x):
        project.calls.append(x)
        if x <= 0:
            return math.nan, None, None
        return math.log(x) ** 2, [math.log(x)], [1 / x]

    project.calls = []
    res = gauss_newton(project, 10.0)
    assert res.converged
    assert res.x == pytest.approx(1.0, abs=1e-12)
    assert min(project.calls) < 0


def test_scalar_rise_is_damped():
    # the Gauss-Newton step on atan(x) from 3 overshoots to atan(-9.5);
    # Marquardt damping shortens it until the SSE falls
    project = counted(lambda x: [math.atan(x)],
                      lambda x: [1 / (1 + x * x)])
    res = gauss_newton(project, 3.0)
    assert res.converged
    assert abs(res.x) <= 1e-10
    sse = [project(x)[0] for x in project.calls[:res.nfev]]
    assert any(b > a for a, b in zip(sse, sse[1:]))
    assert res.fun <= sse[0]


def test_scalar_large_residual_lands_on_the_root_of_the_slope():
    # r = (3 - z, 1 - z^2), z = exp(x), leaves a large residual at its
    # minimum, the root of 2 z^3 - z - 3: there col.col overstates the
    # curvature, and every step after the first takes the secant
    # curvature of the slope instead
    project = counted(lambda x: [3 - math.exp(x), 1 - math.exp(2 * x)],
                      lambda x: [-math.exp(x), -2 * math.exp(2 * x)])
    z = 1.3
    for _ in range(8):
        z -= (2 * z**3 - z - 3) / (6 * z * z - 1)
    res = gauss_newton(project, 0.0)
    assert res.converged
    assert res.x == pytest.approx(math.log(z), abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(center=st.floats(-1e3, 1e3), x0=st.floats(-1e3, 1e3),
       slope=st.floats(1e-2, 1e2), mix=st.floats(0.0, 1.0))
def test_scalar_finds_unimodal_minimum(center, x0, slope, mix):
    # zero at the center, and as far as 2e5 slopes from it at the start:
    # the cubic makes the Gauss-Newton steps shrink far from the center
    project = counted(
        lambda x: [slope * (x - center),
                   mix * (slope * (x - center)) ** 3],
        lambda x: [slope, 3 * mix * slope * (slope * (x - center)) ** 2])
    res = gauss_newton(project, x0)
    assert res.converged
    assert abs(res.x - center) <= 1e-9 * max(1.0, abs(center))
    assert res.fun <= project(x0)[0]


@pytest.mark.parametrize("residual, slope, x0, bound", [
    # minimum at 5, beyond hi: the first step crosses hi and ends on it
    (lambda x: [x - 5.0], lambda x: [1.0], 0.5, 2.5),
    # minimum at -5, below lo
    (lambda x: [x + 5.0], lambda x: [1.0], 0.5, 1e-3),
    # minimum at 0, below lo, from 3.3, where x + (lo - x) falls below lo
    (lambda x: [x], lambda x: [1.0], 3.3, 1e-3),
    # minimum at log 30, beyond hi, and a start beyond it clipped onto hi
    (lambda x: [math.exp(x) - 30.0], lambda x: [math.exp(x)], 10.0, 2.5),
    # the minimum of atan(x + 2)^2 at -2, below lo, is approached in steps
    (lambda x: [math.atan(x + 2.0)], lambda x: [1 / (1 + (x + 2.0) ** 2)],
     1.5, 1e-3),
], ids=["above", "below", "rounding", "clipped-start", "stepwise"])
def test_scalar_search_stops_on_the_bound_it_points_out_of(residual, slope,
                                                          x0, bound):
    # the slope at the bound points out of [1e-3, 2.5]: the search stops
    # there, on the bound exactly, and asks for no point outside the range
    project = counted(residual, slope)
    res = gauss_newton(project, x0, 1e-3, 2.5)
    assert res.converged
    assert res.x == bound
    assert res.fun == project(bound)[0]
    assert all(1e-3 <= x <= 2.5 for x in project.calls)
    assert res.nfev <= 10


def test_scalar_search_returns_the_bound_it_converges_on():
    # the minimum lies 1e-11 inside lo, below the step tolerance: the
    # search stays on the bound instead of taking that step
    project = counted(lambda x: [x - 1e-3 - 1e-11], lambda x: [1.0])
    res = gauss_newton(project, 0.0, 1e-3, 2.5)
    assert res.converged
    assert (res.x, res.nfev) == (1e-3, 1)


@settings(max_examples=200, deadline=None)
@given(center=st.floats(-1e3, 1e3), x0=st.floats(-1e3, 1e3),
       slope=st.floats(1e-2, 1e2), mix=st.floats(0.0, 1.0),
       pads=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)))
def test_scalar_loose_bounds_change_nothing(center, x0, slope, mix, pads):
    # bounds beyond every point the unbounded search visits or returns
    # leave the search as it is, bit for bit
    def residual(x):
        return [slope * (x - center), mix * (slope * (x - center)) ** 3]

    def column(x):
        return [slope, 3 * mix * slope * (slope * (x - center)) ** 2]

    free = counted(residual, column)
    res = gauss_newton(free, x0)
    seen = free.calls + [res.x]
    lo = min(seen) - pads[0] * (1 + abs(min(seen)))
    hi = max(seen) + pads[1] * (1 + abs(max(seen)))
    bounded = counted(residual, column)
    got = gauss_newton(bounded, x0, lo, hi)
    assert bounded.calls == free.calls
    assert (got.x, got.fun, got.nfev, got.iterations, got.converged) == (
        res.x, res.fun, res.nfev, res.iterations, res.converged)
