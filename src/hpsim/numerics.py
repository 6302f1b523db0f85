"""Numerical kernels: complementary error function, adaptive quadrature, RNG.

erfc is implemented in-repo as one rational formula, Weideman's N = 40
expansion (J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)), with
literal coefficients instead of a platform primitive or FFT, so the
acceptance tolerances are bit-stable across platforms.  The test suite
checks it against an independent dual-method oracle (Maclaurin series for
small arguments, Lentz continued fraction for large ones).

The random stream is a *named* algorithm, not a library default:
Philox4x64 counter-based generator -> 53-bit uniform doubles -> Box-Muller
(cosine branch) for normals.  Reimplementing that recipe reproduces the
streams exactly; see RNG_ALGORITHM.
"""

import math
import numbers
import operator

import numpy as np

from .errors import SimulationError

RNG_ALGORITHM = "philox4x64 uniforms + box-muller(cos) normals, v1"

_SQRPI = 5.6418958354775628695e-1  # 1/sqrt(pi)

# --- Weideman's rational erfc ---------------------------------------------
# erfc(y) = exp(-y^2) [2 p(Z) / (L + y)^2 + 1 / (sqrt(pi) (L + y))], y >= 0,
# Z = (L - y) / (L + y).  The 40 coefficients of p (highest power first) are
# Weideman's DFT, evaluated in 50-digit arithmetic and rounded to doubles;
# tests/oracles.py regenerates them.  N = 40 is the smallest N of 32, 36,
# 40, 44, 48 and 64 that gives erfc(0) == 1.0 exactly.
_L = math.sqrt(40 / math.sqrt(2))
_WEIDEMAN = (
    -1.899694947394927e-15, 1.128073562364402e-15, 1.1357687198999241e-14,
    -5.409310282882142e-15, -7.074086260286855e-14, 1.37256205867155e-14,
    4.5329666782606727e-13, 1.2031458219387989e-13, -2.907688342182867e-12,
    -2.7276023158200452e-12, 1.7714495214011192e-11, 3.47272670930455e-11,
    -9.055124450928292e-11, -3.5632339865976533e-10, 2.1086006347066517e-10,
    3.0177805400090707e-09, 3.2497465180436973e-09, -1.8315616783040462e-08,
    -6.35177348504429e-08, 1.4198642399935674e-08, 5.912136951899494e-07,
    1.483566113220078e-06, -1.0660138984947143e-06, -1.8007447144750956e-05,
    -5.591309264248318e-05, -3.939363145489569e-05, 0.0004398070159869668,
    0.0027054056330737914, 0.010048186242783424, 0.029202916471241867,
    0.07182361779074337, 0.15504263802479495, 0.29989437996150065,
    0.5266528988277086, 0.8472174576593818, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.61605415276186,
    2.8996245093897053)
_XBIG = 26.543          # erfc underflows to 0 beyond this


def _exp_mx2(y):
    """exp(-y^2) with the argument split to recover low-order bits of y^2."""
    ysq = np.floor(y * 16.0) / 16.0
    rem = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-rem)


def erfc(x):
    """Complementary error function, elementwise.

    Accepts a scalar or ndarray; returns the matching type.  Weideman's
    N = 40 formula on |x| is within 1e-15 relative of the standard library
    up to the underflow cut; erfc(x) = 2 - erfc(-x) handles negative
    arguments, and NaN gives NaN.
    """
    xa = np.asarray(x, dtype=float)
    y = np.abs(xa)
    yc = np.minimum(y, _XBIG)       # keeps inf and huge |x| out of the formula
    s = _L + yc
    p = np.polyval(_WEIDEMAN, (_L - yc) / s)
    out = _exp_mx2(yc) * (2.0 * p / (s * s) + _SQRPI / s)
    out = np.where(y > _XBIG, 0.0, out)
    out = np.where(xa < 0.0, 2.0 - out, out)
    return float(out) if np.ndim(x) == 0 else out


# --- adaptive Simpson quadrature ------------------------------------------

_MAX_DEPTH = 48        # refinement levels below each initial segment


def integrate_piecewise(f, breakpoints, tol=1e-9):
    """Adaptive Simpson for a batch of integrals of one integrand.

    f(v, which) returns integral which[j]'s integrand at v[j] for 1-D
    arrays, elementwise; which is made for each call, and f may overwrite
    it.  Integral i runs over breakpoints[i], each of its segments with
    tol / (its segment count).  A panel is accepted when its halves differ
    from the whole by |delta| <= 15 tol (or at depth _MAX_DEPTH) and gives
    the Richardson sum; otherwise both halves go on with half the
    tolerance.  The batch is refined level by level, every pending point
    of a level going to f in order, in one call (f bounds its working set:
    homodyne.integrands evaluates in slices); a panel's decision reads
    only its own five points, so an integral accepts the same panels in a
    batch as alone.  Each level adds its accepted panels to their
    integrals' totals, left halves before right halves, so an integral's
    panels are summed in the same order in a batch as alone.  Returns the
    totals (0.0 for none); SimulationError at the first non-finite value.
    """
    panels = []                 # (a, b, tol, owner integral)
    for i, pts in enumerate(breakpoints):
        pts = sorted(pts)
        panels += [(lo, hi, tol / max(1, len(pts) - 1), i)
                   for lo, hi in zip(pts[:-1], pts[1:]) if lo != hi]
    if not panels:
        return [0.0] * len(breakpoints)
    a, b, tol, owner = np.array(panels, dtype=float).T
    owner = owner.astype(np.intp)
    fa, fm, fb = _evaluate(f, owner, a, 0.5 * (a + b), b)
    # the frontier: rows a, b, fa, fm, fb, whole, tol and owner hold one
    # entry per open panel
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    totals = np.zeros(len(breakpoints))
    for depth in range(_MAX_DEPTH, -1, -1):
        m = 0.5 * (a + b)
        flm, frm = _evaluate(f, owner, 0.5 * (a + m), 0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        done = (np.abs(delta) <= 15.0 * tol) | (depth == 0)
        # Richardson extrapolation of the two half-panel estimates
        totals += np.bincount(owner[done], (left + right + delta / 15.0)[done],
                              len(breakpoints))
        go = np.flatnonzero(~done)
        if not go.size:
            break
        tol = 0.5 * tol
        # the open panels' left halves, then their right halves
        a, b, fa, fm, fb, whole, tol, owner = [
            np.concatenate((x[go], y[go])) for x, y in
            ((a, m), (m, b), (fa, fm), (flm, frm), (fm, fb), (left, right),
             (tol, tol), (owner, owner))]
    return totals.tolist()


def _evaluate(f, owner, *xs):
    """f on the points of xs in one call, one output row per x; owner holds
    each column's integral index.  SimulationError at the first non-finite
    value."""
    v = np.concatenate(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        out = f(v, np.tile(owner, len(xs)))
    bad = ~np.isfinite(out)
    if bad.any():
        raise SimulationError(
            f"non-finite integrand value at v={float(v[bad][0])!r}")
    return out.reshape(len(xs), -1)


# --- seeded sampling -------------------------------------------------------

def check_seed(seed) -> int:
    """The one check of a sampling seed: an integer, not a bool, in [0, 2^64)."""
    integral = isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
    if not (integral and 0 <= operator.index(seed) < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return operator.index(seed)


# Most Monte Carlo trials one run takes: a block of metrics.MC_BLOCK_TRIALS
# costs 4.5-9 ms for n <= 5 and 8-12.5 ms at n = 20 on one CPU of a 2-core
# machine (the ranges span the host's speed between runs), so 10^9 trials
# (15,259 blocks) take 1.2-3.2 minutes.
MAX_TRIALS = 10**9


def check_trials(trials, minimum=0) -> int:
    """The one check of a trial count: an integer, not a bool, in
    minimum..MAX_TRIALS (minimum 1 where trials are drawn).  Returns it as
    a Python int."""
    if not isinstance(trials, numbers.Integral) or isinstance(trials, bool):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if trials < minimum:
        raise ValueError(f"trials must be >= {minimum}, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    return operator.index(trials)


def philox_stream(seed, word=0):
    """Counter-based Philox4x64 generator for the documented sampling recipe.

    The generator starts at 64-bit stream word `word` (one word per uniform
    double).  Each Philox counter step yields four words, so the counter is
    advanced by word // 4 steps and word % 4 doubles are discarded: any
    point of the stream is reached in O(1), and a stream drawn in pieces
    equals the stream drawn at once.
    """
    seed = check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    if word:
        rng.bit_generator.advance(word // 4)
        rng.random(word % 4)
    return rng


def standard_normals(u1, u2):
    """Box-Muller (cosine branch) normals from uniform doubles u1 and u2 of
    one shape (float64 arrays), one normal per pair, written over u1.

    u1 is mapped to (0, 1] so the log never sees zero, and u2 is turned
    into cos(2 pi u2) in place, so the call makes no array.  Pass
    rng.random(size), rng.random(size) for the consecutive layout.
    """
    if np.shape(u1) != np.shape(u2):
        raise ValueError(f"u1 and u2 must have one shape, got "
                         f"{np.shape(u1)} and {np.shape(u2)}")
    np.subtract(1.0, u1, out=u1)
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1
