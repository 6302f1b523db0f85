"""Joint state of n atomic qubits, one coherent pulse, and loss environments.

The state after any sequence of conditional phase-shift (CPS) gates and
linear-loss events stays in the branch form

    |Psi> = sum_x  c_x |x>  |f_x>  |e_x1> |e_x2> ...

where x runs over all n-bit strings, c_x is the atomic amplitude, f_x the
coherent label of the pulse, and e_xj the coherent labels deposited in one
environment mode per loss event.  Coherent labels are unit-norm states, so
the c_x carry the whole weight and sum_x |c_x|^2 = 1 throughout.

Everything here is exact bookkeeping on those labels:

* a CPS gate on qubit i multiplies f_x by r0 or r1 according to bit i,
  splitting sqrt(1-|r|^2) * f_x into a fresh environment mode when the
  reflection is sub-unit;
* a transmission-eta**2 channel is one beam splitter on the pulse,
  f_x -> eta f_x with sqrt(1-eta^2) f_x recorded in the environment;
* tracing the environments out later multiplies atomic coherences by the
  overlap factor Gamma_xy = prod_j <e_yj|e_xj>.

States are immutable; operations return new values.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 20          # dense 2^n branch map; desk-scale cap
NORM_TOL = 1e-12
_UNIT_TOL = 1e-13        # |r| within this of 1 counts as lossless


def hamming_weights(n: int) -> np.ndarray:
    """Weight of every n-bit branch index, as an int array of length 2^n."""
    w = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        w = np.concatenate([w, w + 1])
    return w


@dataclass(frozen=True)
class HybridState:
    n: int
    alpha0: float
    amps: np.ndarray      # (2^n,) complex atomic amplitudes
    fields: np.ndarray    # (2^n,) complex coherent labels of the pulse
    env: np.ndarray       # (2^n, n_events) complex environment labels

    def __post_init__(self):
        size = 2**self.n
        if self.amps.shape != (size,) or self.fields.shape != (size,):
            raise ValueError("branch arrays must have one entry per bitstring")
        if self.env.ndim != 2 or self.env.shape[0] != size:
            raise ValueError("env must be (2^n, n_events)")
        norm = float(np.sum(np.abs(self.amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"branch amplitudes not normalized: sum={norm!r}")
        if np.any(np.abs(self.fields) > self.alpha0 + 1e-12):
            raise ValueError("field label exceeds the initial amplitude; "
                             "only passive operations are modeled")
        for a in (self.amps, self.fields, self.env):
            a.flags.writeable = False

    @property
    def n_branches(self) -> int:
        return 2**self.n

    @property
    def n_loss_events(self) -> int:
        return self.env.shape[1]


def init_plus_state(n: int, alpha: float) -> HybridState:
    """All qubits in (|0>+|1>)/sqrt(2), pulse in the coherent state |alpha>."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_QUBITS}, got {n}")
    if isinstance(alpha, complex) or alpha < 0:
        raise ValueError(f"alpha must be real and non-negative, got {alpha!r}")
    size = 2**n
    amps = np.full(size, 2.0 ** (-n / 2), dtype=complex)
    fields = np.full(size, complex(alpha), dtype=complex)
    env = np.zeros((size, 0), dtype=complex)
    return HybridState(n=n, alpha0=float(alpha), amps=amps, fields=fields, env=env)


def apply_cps(state: HybridState, qubit_index: int, pair) -> HybridState:
    """Reflect the pulse off node `qubit_index` with reflection pair (r0, r1).

    Branch fields pick up the bit-conditioned factor.  If either reflection
    is sub-unit, one loss event is appended globally: every branch records
    sqrt(1 - |r_bit|^2) times its incident field (zero for the unit-modulus
    bit), so the environment keeps the which-path record of absorption.
    """
    if not 0 <= qubit_index < state.n:
        raise ValueError(f"qubit index {qubit_index} out of range for n={state.n}")
    size = state.n_branches
    shift = state.n - 1 - qubit_index
    bit = (np.arange(size) >> shift) & 1
    r = np.where(bit == 1, complex(pair.r1), complex(pair.r0))

    loss0 = max(0.0, 1.0 - abs(pair.r0) ** 2)
    loss1 = max(0.0, 1.0 - abs(pair.r1) ** 2)
    lossy = max(loss0, loss1) > _UNIT_TOL

    if lossy:
        loss_amp = np.where(bit == 1, math.sqrt(loss1), math.sqrt(loss0))
        new_col = (loss_amp * state.fields)[:, None]
        env = np.concatenate([state.env, new_col], axis=1)
    else:
        env = state.env.copy()
    return HybridState(n=state.n, alpha0=state.alpha0, amps=state.amps.copy(),
                       fields=r * state.fields, env=env)


def apply_channel_loss(state: HybridState, eta: float) -> HybridState:
    """One lumped beam splitter of amplitude transmission eta on the pulse."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    refl = math.sqrt(max(0.0, 1.0 - eta * eta))
    new_col = (refl * state.fields)[:, None]
    env = np.concatenate([state.env, new_col], axis=1)
    return HybridState(n=state.n, alpha0=state.alpha0, amps=state.amps.copy(),
                       fields=eta * state.fields, env=env)


def env_gram(env_rows: np.ndarray) -> np.ndarray:
    """Pairwise Gamma factors for the given environment rows (a PSD Gram matrix)."""
    norms = np.sum(np.abs(env_rows) ** 2, axis=1)
    cross = env_rows @ env_rows.conj().T
    return np.exp(cross - 0.5 * (norms[:, None] + norms[None, :]))


def env_overlap_matrix(state: HybridState) -> np.ndarray:
    """All pairwise Gamma_xy of a state at once."""
    return env_gram(state.env)


def closed_form_final_state(n: int, alpha: float) -> HybridState:
    """State after n ideal CPS gates at phases +/- pi/n, written directly.

    A branch of Hamming weight k carries amplitude 2^(-n/2) and field
    alpha * exp(i (n - 2k) pi / n); weights 0 and n share the label -alpha,
    which is what makes the GHZ component inseparable on the pulse alone.
    """
    if n < 2:
        raise ValueError(f"closed form needs n >= 2, got {n}")
    if isinstance(alpha, complex) or alpha < 0:
        raise ValueError(f"alpha must be real and non-negative, got {alpha!r}")
    size = 2**n
    k = hamming_weights(n)
    amps = np.full(size, 2.0 ** (-n / 2), dtype=complex)
    fields = alpha * np.exp(1j * math.pi * (n - 2 * k) / n)
    env = np.zeros((size, 0), dtype=complex)
    return HybridState(n=n, alpha0=float(alpha), amps=amps, fields=fields, env=env)


# --- target atomic states ---------------------------------------------------

@dataclass(frozen=True)
class TargetState:
    """A named pure atomic state as a normalized amplitude vector."""

    name: str
    n: int
    amps: np.ndarray
    needs_x_gate: bool = False   # set on merged classes needing a follow-up gate

    def __post_init__(self):
        if self.amps.shape != (2**self.n,):
            raise ValueError("target amplitude vector has wrong length")
        norm = float(np.sum(np.abs(self.amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"target not normalized: sum={norm!r}")
        self.amps.flags.writeable = False
