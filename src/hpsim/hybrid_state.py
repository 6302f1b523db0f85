"""Joint state of n atomic qubits, one coherent pulse, and loss environments.

The state after the channel and the n conditional phase-shift (CPS) gates
has the branch form

    |Psi> = 2^(-n/2) sum_x |x> |f_x> |e_x1> |e_x2> ...

where x runs over all n-bit strings, f_x is the coherent label of the pulse
and e_xj the coherent labels deposited in one environment mode per loss
event.  Each gate multiplies the pulse by r0 or r1, so every branch of
Hamming weight k carries the same label eta alpha r0^(n-k) r1^k, and
homodyne detection sees only the n + 1 weights.  Tracing the environments
out multiplies atomic coherences by Gamma_xy = prod_j <e_yj|e_xj>; only
their weight-sector sums

    G_kk' = 2^-n sum_{|x|=k, |y|=k'} Gamma_xy

enter any probability or fidelity.  SectorState holds exactly that: the
weight probabilities C(n,k)/2^n, the n + 1 labels and G.  The dense 2^n
branch form lives in tests/oracles.py as the reference.

States are immutable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError

_UNIT_TOL = 1e-13        # |r|^2 within this of 1 counts as loss-free

# Largest pulse amplitude (mean photon number 1e8).  Labels that are equal in
# exact arithmetic round apart by about 4.4e-16 alpha, so 1 - F of a merged
# bin grows as alpha^4: 1.6e-15 at 1e4, 1.3e-7 at 1e6 (notes/decisions.md).
MAX_ALPHA = 1e4


def check_alpha(alpha):
    """The one check of a pulse amplitude: real, 0 <= alpha <= MAX_ALPHA."""
    if isinstance(alpha, complex) or not 0 <= alpha <= MAX_ALPHA:
        raise ValueError(f"alpha must be finite and non-negative, "
                         f"at most {MAX_ALPHA:g}, got {alpha}")


def check_eta(eta):
    """The one check of a channel amplitude transmission: 0 <= eta <= 1."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")


def alpha_for_nbar(nbar) -> float:
    """sqrt(<n>), the alpha of mean photon number nbar.

    <n> is bounded through its square root, so every nbar whose alpha is at
    most MAX_ALPHA is taken (a few floats above MAX_ALPHA**2 among them).
    """
    if not (0 <= nbar and math.sqrt(nbar) <= MAX_ALPHA):
        raise ValueError(f"mean photon number must be finite and "
                         f"non-negative, at most {MAX_ALPHA**2:g}, got {nbar}")
    return math.sqrt(nbar)


@dataclass(frozen=True)
class SectorState:
    n: int
    probs: np.ndarray       # (n+1,) C(n,k) / 2^n
    fields: np.ndarray      # (n+1,) pulse label of the weight-k branches
    coherence: np.ndarray   # (n+1, n+1) G_kk'

    def __post_init__(self):
        for a in (self.probs, self.fields, self.coherence):
            a.flags.writeable = False


def sector_state(n: int, alpha: float, eta: float, pair) -> SectorState:
    """The sector_states of one (alpha, eta, pair) point."""
    return sector_states(n, [(alpha, eta, pair)])[0]


def sector_states(n: int, points) -> list:
    """The SectorState of each (alpha, eta, pair) point: pulse |alpha>,
    qubits in |+>, channel eta, then one CPS gate per node.

    G comes from one dynamic program over the nodes whose state (a, b)
    counts the 1-bits seen so far in x and in y.  Before gate j a branch
    with a ones carries the incident label f_j(a) = eta alpha r0^(j-a) r1^a,
    and the gate scatters s_bit f_j(a) into a fresh environment mode, with
    s_bit = sqrt(1 - |r_bit|^2).  A bit pair (bx, by) therefore multiplies
    the (a, b) entry by <e_y|e_x> = exp(e_x conj(e_y) - |e_x|^2/2 - |e_y|^2/2)
    and moves it to (a + bx, b + by).  When neither reflection is lossy
    beyond _UNIT_TOL the gate records no event (s = 0).  The channel's loss
    label sqrt(1 - eta^2) alpha is the same on every branch, so its factor
    is 1.  Points share a leading axis (points x n^2 entries of G: pass
    bounded blocks), and a point's loss and new top label are Python scalar
    arithmetic, which numpy's array loops round differently, so its bits do
    not depend on the batch.  A non-finite state raises SimulationError.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    for alpha, eta, _ in points:
        check_alpha(alpha)
        check_eta(eta)
    losses = [[max(0.0, 1.0 - abs(r) ** 2) for r in (pair.r0, pair.r1)]
              for _, _, pair in points]
    s = np.sqrt([loss if max(loss) > _UNIT_TOL else [0.0, 0.0]
                 for loss in losses]).reshape(-1, 2, 1)     # s[point, bit]
    r0 = np.array([pair.r0 for _, _, pair in points], dtype=complex)[:, None]
    f = np.array([eta * alpha for alpha, eta, _ in points], complex)[:, None]
    d = np.ones((len(points), 1, 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            x = s[..., None, None] * f[:, None, None, :, None]  # e_x; y: conj e_y
            hx = 0.5 * np.abs(x) ** 2
            y, hy = x.conj().transpose(0, 2, 1, 4, 3), hx.transpose(0, 2, 1, 4, 3)
            # step[point, bx, by, a, b]: the (a, b) entry times <e_y|e_x>
            step = d[:, None, None] * np.exp(x * y - hx - hy)
            d = np.zeros((len(points), m + 1, m + 1), dtype=complex)
            for bx, by in ((0, 0), (0, 1), (1, 0), (1, 1)):
                d[:, bx:bx + m, by:by + m] += step[:, bx, by]
            top = [row[-1] * pair.r1 for row, (_, _, pair) in zip(f, points)]
            f = np.concatenate([f * r0, np.array(top, complex)[:, None]], 1)
    bad = ~(np.isfinite(f).all(1) & np.isfinite(d).all((1, 2)))
    if bad.any():
        raise SimulationError(f"non-finite sector state at "
                              f"alpha={points[int(np.argmax(bad))][0]!r}")
    probs = np.array([math.comb(n, k) for k in range(n + 1)]) / 2.0**n
    return [SectorState(n=n, probs=probs, fields=fp, coherence=dp)
            for fp, dp in zip(f, d / 2.0**n)]
