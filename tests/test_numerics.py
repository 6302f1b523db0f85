import math

import numpy as np
import pytest

from hpsim.errors import SimulationError
from hpsim.numerics import (erfc, integrate_piecewise, philox_stream,
                            standard_normals)
from oracles import adaptive_simpson, erfc_oracle


def test_erfc_against_dual_method_oracle():
    # series for |x| <= 2, continued fraction beyond; 1000 points in [-6, 6]
    rng = np.random.default_rng(20260809)
    xs = np.concatenate([np.linspace(-6.0, 6.0, 500), rng.uniform(-6, 6, 500)])
    worst = 0.0
    for x in xs:
        ref = erfc_oracle(float(x))
        val = erfc(float(x))
        worst = max(worst, abs(val - ref) / abs(ref))
    assert worst < 1e-12, f"max relative error {worst}"


def test_erfc_against_stdlib():
    xs = np.linspace(-10.0, 10.0, 801)
    for x in xs:
        ref = math.erfc(float(x))
        assert abs(erfc(float(x)) - ref) <= 1e-13 * max(abs(ref), 1e-280)


def test_erfc_reflection_identity_exact():
    # erfc(x) + erfc(-x) = 2 holds exactly in floats (negative branch is 2 - erfc)
    for x in np.linspace(0.0, 8.0, 100):
        assert erfc(float(x)) + erfc(float(-x)) == 2.0


def test_erfc_vectorized_matches_scalar():
    xs = np.linspace(-5, 5, 57)
    vec = erfc(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == erfc(float(x))


def test_erfc_extremes():
    assert erfc(0.0) == 1.0
    assert erfc(30.0) == 0.0
    assert erfc(-30.0) == 2.0


def test_adaptive_simpson_gaussian_mass():
    # integral of the outcome Gaussian against the erfc closed form
    for mean in (-2.0, 0.0, 1.7):
        f = lambda v: math.exp(-(v - mean) ** 2) / math.sqrt(math.pi)
        got = adaptive_simpson(f, mean - 8.0, mean + 1.0, tol=1e-10)
        want = 0.5 * (erfc_oracle(-8.0) - erfc_oracle(1.0))
        assert abs(got - want) < 1e-9


def test_adaptive_simpson_empty_interval():
    assert adaptive_simpson(lambda v: 1.0, 2.0, 2.0) == 0.0


def test_integrate_piecewise_matches_single_interval():
    f = lambda v: np.exp(-(v - 0.5) ** 2)
    whole = adaptive_simpson(f, -6.0, 6.0, 1e-10)
    split = integrate_piecewise(f, [-6.0, -1.0, 0.5, 6.0], 1e-10)
    assert abs(whole - split) < 1e-9


def test_integrate_piecewise_stops_at_first_non_finite_value():
    # a NaN region first sampled on the third level: no further level runs
    for bad in (np.nan, np.inf):
        sizes = []

        def f(v):
            sizes.append(v.size)
            return np.where((v > 0.6) & (v < 0.65), bad, np.exp(-v * v))

        with pytest.raises(SimulationError, match="non-finite integrand"):
            integrate_piecewise(f, [0.0, 1.0])
        assert sizes == [3, 2, 4]


def test_philox_stream_is_deterministic():
    a = philox_stream(99).random(16)
    b = philox_stream(99).random(16)
    c = philox_stream(100).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_box_muller_normals_moments():
    rng = philox_stream(5)
    z = standard_normals(rng, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_box_muller_consumes_fixed_stream():
    # two uniforms per normal, branch-free layout
    z1 = standard_normals(philox_stream(11), 8)
    rng = philox_stream(11)
    u1 = 1.0 - rng.random(8)
    u2 = rng.random(8)
    z2 = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    assert np.array_equal(z1, z2)


def test_philox_seed_range_enforced():
    philox_stream(0)
    philox_stream(2**64 - 1)
    for bad in (-1, 2**64):
        try:
            philox_stream(bad)
            assert False, "out-of-range seed accepted"
        except ValueError:
            pass
