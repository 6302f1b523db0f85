import math

import numpy as np
import pytest

from hpsim import numerics
from hpsim.errors import SimulationError
from hpsim.numerics import (erfc, integrate_piecewise, philox_stream,
                            standard_normals)
from oracles import (adaptive_simpson, erfc_oracle, integrate_piecewise_recursive,
                     integrate_piecewise_v1, same_bits, standard_normals_v1,
                     weideman_coefficients)


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
    # up to the underflow cut at 26.543, where the tail is subnormal
    xs = np.linspace(-26.5, 26.5, 2121)
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
    assert erfc(math.inf) == 0.0
    assert erfc(-math.inf) == 2.0
    assert math.isnan(erfc(math.nan))
    vec = erfc(np.array([math.nan, -math.inf, 0.0, math.inf]))
    assert np.isnan(vec[0]) and list(vec[1:]) == [2.0, 1.0, 0.0]


def test_erfc_coefficients_regenerate():
    # the literal constants are Weideman's FFT construction at N = 40
    want = weideman_coefficients(40)
    assert len(numerics._WEIDEMAN) == 40
    assert np.max(np.abs(np.array(numerics._WEIDEMAN) - want)) < 1e-14


def test_adaptive_simpson_gaussian_mass():
    # integral of the outcome Gaussian against the erfc closed form
    for mean in (-2.0, 0.0, 1.7):
        f = lambda v: math.exp(-(v - mean) ** 2) / math.sqrt(math.pi)
        got = adaptive_simpson(f, mean - 8.0, mean + 1.0, tol=1e-10)
        want = 0.5 * (erfc_oracle(-8.0) - erfc_oracle(1.0))
        assert abs(got - want) < 1e-9


def test_adaptive_simpson_empty_interval():
    assert adaptive_simpson(lambda v: 1.0, 2.0, 2.0) == 0.0


def _one(f):
    """f(v) as the integrand of every integral of a batch."""
    return lambda v, which: f(v)


def _per_integral(fs):
    """The batch integrand whose integral i is fs[i] (fs[i] gets its
    points in the order they come)."""
    def f(v, which):
        out = np.empty(v.size)
        for i, g in enumerate(fs):
            mine = which == i
            if mine.any():
                out[mine] = g(v[mine])
        return out
    return f


def test_integrate_piecewise_matches_single_interval():
    f = lambda v: np.exp(-(v - 0.5) ** 2)
    whole = adaptive_simpson(f, -6.0, 6.0, 1e-10)
    split, = integrate_piecewise(_one(f), [[-6.0, -1.0, 0.5, 6.0]], 1e-10)
    assert abs(whole - split) < 1e-9


def test_integrate_piecewise_stops_at_first_non_finite_value():
    # a NaN region first sampled on the third level: no further level runs
    for bad in (np.nan, np.inf):
        sizes = []

        def f(v, which):
            sizes.append(v.size)
            return np.where((v > 0.6) & (v < 0.65), bad, np.exp(-v * v))

        with pytest.raises(SimulationError, match="non-finite integrand"):
            integrate_piecewise(f, [[0.0, 1.0]])
        assert sizes == [3, 2, 4]


class _Counted:
    """Batch integrand wrapper that counts its calls, the points it is
    asked for and the points of each integral, and keeps every call's
    points in order."""

    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.points = 0
        self.owners = np.zeros(0, np.intp)
        self.seen = []

    def __call__(self, v, which):
        self.calls += 1
        self.points += np.size(v)
        self.owners = np.concatenate([self.owners, which])
        self.seen.append(np.copy(v))
        return self.f(v, which)

    def points_of(self, integral):
        return int(np.count_nonzero(self.owners == integral))


_GAUSS = lambda v: np.exp(-(v - 0.3) ** 2)
_LORENTZ = lambda v: 1.0 / (1.0 + 4.0 * v * v)
_WAVE = lambda v: np.cos(3.0 * v) * np.exp(-0.25 * v * v)


def test_batched_integrals_equal_each_integral_alone():
    # elementwise integrands: bitwise equal values and equal point counts,
    # with one integrand shared by two integrals of the batch
    jobs = [(_GAUSS, [-6.0, 0.3, 6.0]), (_LORENTZ, [-3.0, -1.0, 0.0, 2.0]),
            (_GAUSS, [0.0, 1.5]), (_WAVE, [-8.0, 8.0])]
    alone = []
    for f, pts in jobs:
        counted = _Counted(_one(f))
        alone.append((integrate_piecewise(counted, [pts], 1e-10)[0],
                      counted.points))
    counted = _Counted(_per_integral([f for f, _ in jobs]))
    got = integrate_piecewise(counted, [pts for _, pts in jobs], 1e-10)
    assert got == [value for value, _ in alone]
    assert [counted.points_of(i) for i in range(len(jobs))] == [
        points for _, points in alone]


def test_batch_with_empty_breakpoint_lists():
    alone = _Counted(_one(_GAUSS))
    want, = integrate_piecewise(alone, [[0.0, 1.0]])
    f = _Counted(_one(_GAUSS))
    assert integrate_piecewise(f, [[], [1.0], [2.0, 2.0], [0.0, 1.0]]) == [
        0.0, 0.0, 0.0, want]
    assert (f.calls, f.points) == (alone.calls, alone.points)
    assert integrate_piecewise(f, [[], [3.0]]) == [0.0, 0.0]
    assert integrate_piecewise(f, []) == []
    assert f.calls == alone.calls          # nothing to integrate: no call


def test_batched_integrals_keep_their_own_tolerance():
    # tol is split over each integral's own segments: one segment gets tol,
    # each of four gets tol / 4, as in the recursive oracle
    one, four = [-4.0, 4.0], [-4.0, -1.0, 0.3, 2.0, 4.0]
    tol = 1e-7
    f = _Counted(_one(_GAUSS))
    got = integrate_piecewise(f, [one, four], tol)
    for i, (pts, value) in enumerate(((one, got[0]), (four, got[1]))):
        scalar = []
        want = integrate_piecewise_recursive(_scalar_gauss(scalar), pts, tol)
        assert abs(value - want) <= 1e-13
        assert f.points_of(i) == len(scalar)
    # the split matters: four segments at tol each would stop sooner
    loose = []
    integrate_piecewise_recursive(_scalar_gauss(loose), four, 4 * tol)
    assert len(loose) < f.points_of(1)


def _scalar_gauss(points):
    """_GAUSS on one float, recording each point in `points`."""
    def f(v):
        points.append(v)
        return float(_GAUSS(np.array([v]))[0])
    return f


def test_shared_callable_costs_one_call_per_level():
    # the batch's one integrand is called once per level: as often as for
    # the integral alone that refines deepest
    jobs = [(_WAVE, [-6.0, 6.0]), (_LORENTZ, [0.0, 1.0]), (_WAVE, [0.0, 0.1])]
    calls = []
    for f, pts in jobs:
        counted = _Counted(_one(f))
        integrate_piecewise(counted, [pts])
        calls.append(counted.calls)
    assert calls[0] != calls[2]
    shared = _Counted(_per_integral([f for f, _ in jobs]))
    integrate_piecewise(shared, [pts for _, pts in jobs])
    assert shared.calls == max(calls)


@pytest.mark.parametrize("size", [None, 1, 7])
def test_sliced_levels_equal_frozen_frontier(monkeypatch, size):
    # 1-D frontier rows, levels in slices of the default size, of 1 or of
    # 7 points: the frozen 8-row frontier's totals bit for bit, from the
    # same points of the same integrals in the same order
    if size:
        monkeypatch.setattr(numerics, "_SLICE_POINTS", size)
    jobs = [(_GAUSS, [-6.0, 0.3, 6.0]), (_LORENTZ, [-3.0, -1.0, 0.0, 2.0]),
            (_WAVE, [-8.0, 8.0]), (_GAUSS, []), (_WAVE, [0.0, 0.1])]
    for tol in (1e-6, 1e-10, 1e-13):
        got, want = (_Counted(_per_integral([f for f, _ in jobs]))
                     for _ in range(2))
        assert integrate_piecewise(got, [p for _, p in jobs], tol) == (
            integrate_piecewise_v1(want, [p for _, p in jobs], tol))
        assert np.array_equal(np.concatenate(got.seen),
                              np.concatenate(want.seen))
        assert np.array_equal(got.owners, want.owners)
        assert max(map(len, got.seen)) <= numerics._SLICE_POINTS
        assert size is None or size < max(map(len, want.seen))


def test_non_finite_value_in_one_integral_of_a_batch(monkeypatch):
    # the message names the first non-finite point in level order, in
    # slices of any size
    nan_near_2 = lambda v: np.where(np.abs(v - 2.5) < 0.01, np.nan, _GAUSS(v))
    # non-finite at 2.5 (a midpoint) and at 3.0 (an end, later in level
    # order, and in another slice of 1 point)
    two_bad = lambda v: np.where(np.abs(v - 3.0) < 0.01, np.inf, nan_near_2(v))
    for size in (numerics._SLICE_POINTS, 1, 7):
        monkeypatch.setattr(numerics, "_SLICE_POINTS", size)
        with pytest.raises(SimulationError, match=r"v=2\.5"):
            integrate_piecewise(_per_integral([_GAUSS, nan_near_2]),
                                [[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(SimulationError, match=r"v=2\.5"):
            integrate_piecewise(_one(nan_near_2), [[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(SimulationError, match=r"v=2\.5\b"):
            integrate_piecewise(_one(two_bad), [[0.0, 1.0], [2.0, 3.0]])


def test_philox_stream_is_deterministic():
    a = philox_stream(99).random(16)
    b = philox_stream(99).random(16)
    c = philox_stream(100).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_box_muller_normals_moments():
    rng = philox_stream(5)
    z = standard_normals(rng, 200_000, rng)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_box_muller_consumes_fixed_stream():
    # two uniforms per normal, branch-free layout; one generator passed
    # twice reads u1 and u2 consecutively
    rng = philox_stream(11)
    z1 = standard_normals(rng, 8, rng)
    rng = philox_stream(11)
    u1 = 1.0 - rng.random(8)
    u2 = rng.random(8)
    z2 = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    assert np.array_equal(z1, z2)


def test_box_muller_equals_frozen_form_byte_for_byte():
    # u1 is drawn before u2, from one generator and from two
    def generators(size, two):
        rng = philox_stream(3, 5)
        return rng, philox_stream(3, 5 + 2 * size) if two else rng
    for size in (1, 7, 1001):
        for two in (False, True):
            (a, b), (c, d) = generators(size, two), generators(size, two)
            assert same_bits(standard_normals(a, size, b),
                             standard_normals_v1(c, size, d))


def test_normals_into_out_equal_allocating_call():
    # out takes the normals over several u2 pieces with the frozen form's
    # bits, also when one generator is passed twice (u1 is drawn whole
    # before any u2)
    size = 3 * numerics._U2_PIECE + 17
    buffer = np.full(size, np.nan)
    for two in (False, True):
        want = standard_normals_v1(*_generators(size, two))
        assert same_bits(standard_normals(*_generators(size, two)), want)
        got = standard_normals(*_generators(size, two), out=buffer)
        assert got is buffer and same_bits(got, want)


def _generators(size, two):
    """(rng, size, rng_u2): one generator twice, or two at u1's and u2's
    stream words."""
    rng = philox_stream(3, 5)
    return rng, size, philox_stream(3, 5 + 2 * size) if two else rng


def test_philox_seed_range_enforced():
    philox_stream(0)
    philox_stream(2**64 - 1)
    philox_stream(np.uint64(2**64 - 1))         # numpy integers pass
    assert numerics.check_seed(np.int32(7)) == 7
    for bad in (-1, 2**64):
        try:
            philox_stream(bad)
            assert False, "out-of-range seed accepted"
        except ValueError:
            pass


@pytest.mark.parametrize("bad", [1.9, "7", True, math.inf],
                         ids=["float", "string", "bool", "inf"])
def test_seed_must_be_an_integer(bad):
    # not truncated to another seed's stream, not parsed, not an OverflowError
    with pytest.raises(ValueError) as err:
        numerics.check_seed(bad)
    assert str(err.value) == f"seed must be an unsigned 64-bit integer, got {bad}"
    with pytest.raises(ValueError):
        philox_stream(bad)
