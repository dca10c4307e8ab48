import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holeburn import MinimizeOptions, minimize, minimize_scalar


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


def test_nonfinite_start_rejected():
    with pytest.raises(ValueError):
        minimize(lambda p: np.inf, [0.0])


def test_scalar_quadratic_to_xtol():
    opts = MinimizeOptions(xtol_rel=1e-10)
    res = minimize_scalar(lambda x: (x - 3.0) ** 2, 0.5, opts)
    assert res.converged
    assert abs(res.x - 3.0) <= 2 * opts.xtol_rel * 3.0
    # the first step, the bracket and every Brent step cost one call each
    assert res.nfev == res.iterations + 3


def test_scalar_far_minimum_expands_bracket():
    res = minimize_scalar(lambda x: np.log1p((x - 5e3) ** 2), 1.0)
    assert res.converged
    assert res.x == pytest.approx(5e3, rel=1e-7)
    # reaching 5e3 from a 5 % step takes ~15 golden-ratio expansions
    assert 15 <= res.iterations < 60


def test_scalar_rejected_region_is_uphill():
    # the trap fit's objective: a huge constant at a nonpositive rate
    res = minimize_scalar(lambda x: 1e300 if x <= 0 else x - np.log(x), 0.02)
    assert res.converged
    assert res.x == pytest.approx(1.0, rel=1e-6)


def test_scalar_iteration_cap_flags_nonconvergence():
    f = lambda x: (x - 3.0) ** 2
    for cap in (0, 2, 8):
        res = minimize_scalar(f, 0.0, MinimizeOptions(max_iter=cap))
        assert not res.converged
        assert res.iterations == cap
        assert res.fun == f(res.x) <= f(0.0)


def test_scalar_nonfinite_start_rejected():
    for start in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            minimize_scalar(lambda x: start, 1.0)


@settings(max_examples=200, deadline=None)
@given(center=st.floats(-1e3, 1e3), x0=st.floats(-1e3, 1e3),
       slope=st.floats(1e-2, 1e2), mix=st.floats(0.0, 1.0),
       xtol=st.sampled_from([1e-4, 1e-6, 1e-8]))
def test_scalar_finds_unimodal_minimum(center, x0, slope, mix, xtol):
    # smooth, unimodal and zero at the center: log1p grows slowly, the cosh
    # term exponentially, up to values that overflow to an uphill inf
    def f(x):
        s = slope * (x - center)
        with np.errstate(over="ignore"):
            bowl = mix * (np.cosh(s) - 1.0) if mix else 0.0
        return bowl + np.log1p(s * s)

    assume(np.isfinite(f(x0)))
    res = minimize_scalar(f, x0, MinimizeOptions(xtol_rel=xtol))
    assert res.converged
    assert abs(res.x - center) <= 2 * xtol * max(1.0, abs(res.x))
    assert res.fun == f(res.x) <= f(x0)
