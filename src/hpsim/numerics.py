"""Numerical kernels: complementary error function, adaptive quadrature, RNG.

erfc is implemented in-repo (rational minimax approximations in three regimes,
after W. J. Cody's classic CALERF construction) instead of relying on a
platform primitive, so the acceptance tolerances are bit-stable across
platforms.  The test suite checks it against an independent dual-method
oracle (Maclaurin series for small arguments, Lentz continued fraction for
large ones).

The random stream is a *named* algorithm, not a library default:
Philox4x64 counter-based generator -> 53-bit uniform doubles -> Box-Muller
(cosine branch) for normals.  Reimplementing that recipe reproduces the
streams exactly; see RNG_ALGORITHM.
"""

import math

import numpy as np

from .errors import SimulationError

RNG_ALGORITHM = "philox4x64 uniforms + box-muller(cos) normals, v1"

_SQRPI = 5.6418958354775628695e-1  # 1/sqrt(pi)

# --- Cody rational coefficients ------------------------------------------
# region 1: 1 - erfc(x), |x| <= 0.46875
_A = (3.16112374387056560e0, 1.13864154151050156e2,
      3.77485237685302021e2, 3.20937758913846947e3)
_A4 = 1.85777706184603153e-1
_B = (2.36012909523441209e1, 2.44024637934444173e2,
      1.28261652607737228e3, 2.84423683343917062e3)

# region 2: erfc(x)*exp(x^2), 0.46875 < x <= 4
_C = (5.64188496988670089e-1, 8.88314979438837594e0,
      6.61191906371416295e1, 2.98635138197400131e2,
      8.81952221241769090e2, 1.71204761263407058e3,
      2.05107837782607147e3, 1.23033935479799725e3)
_C8 = 2.15311535474403846e-8
_D = (1.57449261107098347e1, 1.17693950891312499e2,
      5.37181101862009858e2, 1.62138957456669019e3,
      3.29079923573345963e3, 4.36261909014324716e3,
      3.43936767414372164e3, 1.23033935480374942e3)

# region 3: x > 4, erfc(x)*x*exp(x^2) ~ 1/sqrt(pi) - R(1/x^2)/x^2
_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
      1.25781726111229246e-1, 1.60837851487422766e-2,
      6.58749161529837803e-4)
_P5 = 1.63153871373020978e-2
_Q = (2.56852019228982242e0, 1.87295284992346047e0,
      5.27905102951428412e-1, 6.05183413124413191e-2,
      2.33520497626869185e-3)

_THRESH = 0.46875
_XBIG = 26.543          # erfc underflows to 0 beyond this


def _erf_small(y2):
    """(1 - erfc(x))/x for y2 = x^2 <= THRESH^2 (rational in x^2)."""
    num = _A4 * y2
    den = y2
    for a, b in zip(_A[:3], _B[:3]):
        num = (num + a) * y2
        den = (den + b) * y2
    return (num + _A[3]) / (den + _B[3])


def _exp_mx2(y):
    """exp(-y^2) with the argument split to recover low-order bits of y^2."""
    ysq = np.floor(y * 16.0) / 16.0
    rem = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-rem)


def _erfc_mid(y):
    """erfc(y) for 0.46875 < y <= 4."""
    num = _C8 * y
    den = y
    for c, d in zip(_C[:7], _D[:7]):
        num = (num + c) * y
        den = (den + d) * y
    return _exp_mx2(y) * (num + _C[7]) / (den + _D[7])


def _erfc_far(y):
    """erfc(y) for y > 4."""
    y2 = 1.0 / (y * y)
    num = _P5 * y2
    den = y2
    for p, q in zip(_P[:4], _Q[:4]):
        num = (num + p) * y2
        den = (den + q) * y2
    r = y2 * (num + _P[4]) / (den + _Q[4])
    return _exp_mx2(y) * (_SQRPI - r) / y


def erfc(x):
    """Complementary error function, elementwise.

    Accepts a scalar or ndarray; returns the matching type.  Relative error
    is at the few-ulp level over the working range; erfc(x) = 2 - erfc(-x)
    handles negative arguments.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.asarray(x, dtype=float)
    y = np.abs(xa)
    out = np.empty_like(y)

    small = y <= _THRESH
    mid = (y > _THRESH) & (y <= 4.0)
    far = (y > 4.0) & (y <= _XBIG)
    huge = y > _XBIG

    if small.any():
        ys = y[small]
        out[small] = 1.0 - ys * _erf_small(ys * ys)
    if mid.any():
        out[mid] = _erfc_mid(y[mid])
    if far.any():
        out[far] = _erfc_far(y[far])
    if huge.any():
        out[huge] = 0.0

    neg = xa < 0.0
    if neg.any():
        out[neg] = 2.0 - out[neg]
    return float(out) if scalar else out


# --- adaptive Simpson quadrature ------------------------------------------

_MAX_DEPTH = 48        # refinement levels below each initial segment


def integrate_piecewise(f, breakpoints, tol=1e-9):
    """Integrate f over consecutive [b_i, b_i+1] segments, sharing the tolerance.

    Adaptive Simpson: each segment gets tol / (number of segments); a
    panel is accepted when its two half-panel estimates differ from the
    whole by |delta| <= 15 tol (or at depth _MAX_DEPTH) and contributes the
    Richardson-extrapolated sum, otherwise both halves are refined with
    half the tolerance.  The refinement runs level by level: f receives
    every pending point of one level as a single 1-D array and must return
    an array of the same shape.  Splitting at known structure points (peak
    centers, thresholds) keeps the refinement cheap on multi-peak
    integrands.  Raises SimulationError at the first non-finite value of f.
    """
    pts = sorted(breakpoints)
    a = np.array(pts[:-1], dtype=float)
    b = np.array(pts[1:], dtype=float)
    tol = tol / max(1, len(a))
    a, b = a[a != b], b[a != b]
    if not a.size:
        return 0.0
    fa, fm, fb = np.split(_evaluate(f, np.concatenate([a, 0.5 * (a + b), b])), 3)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    accepted = []
    for depth in range(_MAX_DEPTH, -1, -1):
        m = 0.5 * (a + b)
        flm, frm = np.split(
            _evaluate(f, np.concatenate([0.5 * (a + m), 0.5 * (m + b)])), 2)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        done = (np.abs(delta) <= 15.0 * tol) | (depth == 0)
        # Richardson extrapolation of the two half-panel estimates
        accepted.append((left + right + delta / 15.0)[done])
        go = ~done
        if not go.any():
            break
        a, b = np.concatenate([a[go], m[go]]), np.concatenate([m[go], b[go]])
        fa, fm, fb = (np.concatenate([fa[go], fm[go]]),
                      np.concatenate([flm[go], frm[go]]),
                      np.concatenate([fm[go], fb[go]]))
        whole = np.concatenate([left[go], right[go]])
        tol *= 0.5
    return math.fsum(np.concatenate(accepted))


def _evaluate(f, v):
    """f(v) as floats; SimulationError at the first non-finite value."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(f(v), dtype=float)
    if not np.isfinite(out).all():
        bad = v[~np.isfinite(out)][0]
        raise SimulationError(f"non-finite integrand value at v={float(bad)!r}")
    return out


# --- seeded sampling -------------------------------------------------------

def philox_stream(seed, word=0):
    """Counter-based Philox4x64 generator for the documented sampling recipe.

    The generator starts at 64-bit stream word `word` (one word per uniform
    double).  Each Philox counter step yields four words, so the counter is
    advanced by word // 4 steps and word % 4 doubles are discarded: any
    point of the stream is reached in O(1), and a stream drawn in pieces
    equals the stream drawn at once.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    if word:
        rng.bit_generator.advance(word // 4)
        rng.random(word % 4)
    return rng


def standard_normals(rng, size, rng_u2=None):
    """Box-Muller (cosine branch) normals from uniform doubles.

    u1 is mapped to (0, 1] so the log never sees zero.  Exactly two uniforms
    are consumed per normal: `size` values u1 from rng, then `size` values
    u2 from rng_u2, which defaults to rng itself (the consecutive layout).
    """
    u1 = 1.0 - rng.random(size)
    u2 = (rng if rng_u2 is None else rng_u2).random(size)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
