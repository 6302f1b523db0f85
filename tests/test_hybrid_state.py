import math
from dataclasses import replace

import numpy as np
import pytest

from hpsim.cavity import ReflectionPair, reflection_pair, solve_params_for_phase
from hpsim.homodyne import (build_decision_rule, class_overlap_integrand,
                            integration_window, outcome_density,
                            quadrature_mean, sample_outcomes)
from hpsim.hybrid_state import MAX_ALPHA, sector_states
from hpsim.metrics import MC_BLOCK_TRIALS, SWEEP_BLOCK_POINTS, prepare_state
from hpsim.numerics import philox_stream, standard_normals
from oracles import (HybridState, apply_channel_loss, apply_cps,
                     brute_force_sequential_state, closed_form_final_state,
                     conditional_atomic_state, dense_state, env_overlap_matrix,
                     hamming_weights, init_plus_state, make_target, same_bits,
                     sector_state_per_point, target_at)

PAIR_I = ReflectionPair(1j, -1j)


def field(state, bits):
    """Pulse label of the branch `bits` (character i is qubit i)."""
    return state.fields[int(bits, 2)]


def env_overlap(state, x_bits, y_bits):
    """Gamma_xy between two branches, read off the full overlap matrix."""
    return env_overlap_matrix(state)[int(x_bits, 2), int(y_bits, 2)]


def run_gates(n, alpha, pair=None, order=None):
    pair = pair or reflection_pair(solve_params_for_phase(n))
    state = init_plus_state(n, alpha)
    for i in order or range(n):
        state = apply_cps(state, i, pair)
    return state


def test_init_single_qubit():
    st = init_plus_state(1, 2.0)
    assert st.n_branches == 2
    assert np.all(np.abs(st.amps - 1 / math.sqrt(2)) < 1e-15)
    assert np.all(st.fields == 2.0)
    assert st.env.shape == (2, 0)


def test_init_three_qubits_uniform():
    st = init_plus_state(3, 5.0)
    assert st.n_branches == 8
    assert np.allclose(st.amps, 1 / math.sqrt(8))
    assert abs(np.sum(np.abs(st.amps) ** 2) - 1.0) < 1e-12


def test_init_vacuum_pulse():
    st = init_plus_state(2, 0.0)
    assert np.all(st.fields == 0)
    assert abs(np.sum(np.abs(st.amps) ** 2) - 1.0) < 1e-12


def test_init_rejects_bad_inputs():
    with pytest.raises(ValueError):
        init_plus_state(0, 1.0)
    with pytest.raises(ValueError):
        init_plus_state(21, 1.0)
    with pytest.raises(ValueError):
        init_plus_state(2, -1.0)
    with pytest.raises(ValueError):
        init_plus_state(2, 1.0 + 0.5j)


def test_cps_single_qubit_conditioned_phase():
    st = apply_cps(init_plus_state(1, 3.0), 0, PAIR_I)
    assert abs(field(st, "0") - 3j) < 1e-15
    assert abs(field(st, "1") + 3j) < 1e-15
    assert st.n_loss_events == 0          # unit-modulus pair appends nothing


def test_cps_identity_pair_is_noop():
    st0 = init_plus_state(2, 1.5)
    st = apply_cps(st0, 1, ReflectionPair(1.0 + 0j, 1.0 + 0j))
    assert np.array_equal(st.fields, st0.fields)
    assert np.array_equal(st.amps, st0.amps)
    assert st.n_loss_events == 0


def test_two_gates_sort_branches_by_parity():
    st = run_gates(2, 1.0, pair=PAIR_I)
    assert abs(field(st, "01") - 1.0) < 1e-15
    assert abs(field(st, "10") - 1.0) < 1e-15
    assert abs(field(st, "00") + 1.0) < 1e-15
    assert abs(field(st, "11") + 1.0) < 1e-15


def test_cps_index_out_of_range():
    with pytest.raises(ValueError):
        apply_cps(init_plus_state(2, 1.0), 2, PAIR_I)


def test_cps_preserves_amplitudes():
    st = run_gates(3, 2.0)
    assert np.allclose(st.amps, 1 / math.sqrt(8))


def test_channel_loss_lossless_appends_zero_label():
    st0 = init_plus_state(2, 2.0)
    st = apply_channel_loss(st0, 1.0)
    assert np.array_equal(st.fields, st0.fields)
    assert st.n_loss_events == 1
    assert np.all(st.env == 0)


def test_channel_loss_opaque():
    st = apply_channel_loss(init_plus_state(2, 2.0), 0.0)
    assert np.all(st.fields == 0)
    assert np.allclose(np.abs(st.env[:, 0]), 2.0)


def test_channel_loss_scales_post_gate_fields():
    eta = math.sqrt(2 / 3)
    st = apply_channel_loss(run_gates(2, 3.0, pair=PAIR_I), eta)
    assert abs(field(st, "01") - eta * 3.0) < 1e-14
    assert abs(field(st, "00") + eta * 3.0) < 1e-14


def test_channel_loss_rejects_bad_eta():
    st = init_plus_state(1, 1.0)
    for eta in (-0.1, 1.1):
        with pytest.raises(ValueError):
            apply_channel_loss(st, eta)


def test_env_overlap_identical_and_conjugate():
    st = apply_channel_loss(run_gates(2, 2.0, pair=PAIR_I), 0.8)
    g = env_overlap(st, "01", "10")
    assert abs(g - 1.0) < 1e-14          # same label: within-bin coherence survives
    g01_00 = env_overlap(st, "01", "00")
    assert abs(env_overlap(st, "00", "01") - g01_00.conjugate()) < 1e-15
    assert abs(g01_00) <= 1.0 + 1e-15
    assert abs(env_overlap(st, "11", "11") - 1.0) < 1e-15


def test_env_overlap_opposite_labels():
    # labels e and -e after one event: |<e|-e>| = exp(-2|e|^2)
    st = apply_channel_loss(run_gates(1, 1.5, pair=PAIR_I), 0.6)
    e = st.env[0b0, 0]
    got = env_overlap(st, "1", "0")
    assert abs(abs(got) - math.exp(-2 * abs(e) ** 2)) < 1e-12


def test_env_overlap_matrix_is_psd_gram():
    pair = ReflectionPair(1j, 0.8j)      # lossy coupled reflection
    st = init_plus_state(3, 2.0)
    st = apply_channel_loss(st, 0.9)
    for i in range(3):
        st = apply_cps(st, i, pair)
    gamma = env_overlap_matrix(st)
    assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-14
    assert np.linalg.eigvalsh(gamma).min() > -1e-10
    assert np.allclose(np.diag(gamma), 1.0)


def test_lossy_cps_keeps_env_lengths_global():
    pair = ReflectionPair(1j, 0.5j)
    st = apply_cps(init_plus_state(2, 1.0), 0, pair)
    assert st.env.shape == (4, 1)
    assert st.env[0b00, 0] == 0.0          # uncoupled branch: zero label
    assert abs(st.env[0b10, 0] - math.sqrt(0.75)) < 1e-14


def test_gate_order_invariance():
    rng = np.random.default_rng(4)
    base = run_gates(4, 1.3)
    for _ in range(5):
        order = rng.permutation(4)
        other = run_gates(4, 1.3, order=list(order))
        assert np.max(np.abs(base.fields - other.fields)) < 1e-13


def test_weight_class_collapse():
    for n in (2, 3, 5):
        st = run_gates(n, 2.0)
        w = hamming_weights(n)
        for k in range(n + 1):
            group = st.fields[w == k]
            assert np.max(np.abs(group - group[0])) < 1e-13


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_matches_sequential(n):
    alpha = 1.9
    seq = run_gates(n, alpha)
    cf = closed_form_final_state(n, alpha)
    assert np.max(np.abs(seq.fields - cf.fields)) < 1e-12
    assert np.max(np.abs(seq.amps - cf.amps)) < 1e-12


def test_closed_form_against_brute_force_enumeration():
    n, alpha = 5, 1.1
    pair = reflection_pair(solve_params_for_phase(n))
    brute = brute_force_sequential_state(n, alpha, pair.r0, pair.r1)
    cf = closed_form_final_state(n, alpha)
    assert np.max(np.abs(brute - cf.fields)) < 1e-12


def test_closed_form_fields_small_n():
    st2 = closed_form_final_state(2, 2.0)
    assert abs(field(st2, "00") + 2.0) < 1e-14
    assert abs(field(st2, "01") - 2.0) < 1e-14
    assert abs(field(st2, "11") + 2.0) < 1e-14
    st3 = closed_form_final_state(3, 1.0)
    assert abs(field(st3, "000") + 1.0) < 1e-14
    assert abs(field(st3, "001") - np.exp(1j * math.pi / 3)) < 1e-14
    assert abs(field(st3, "011") - np.exp(-1j * math.pi / 3)) < 1e-14
    assert abs(field(st3, "111") + 1.0) < 1e-14


def test_weight_group_coefficients_three_qubits():
    st = closed_form_final_state(3, 2.0)
    w = hamming_weights(3)
    ghz = math.sqrt(float(np.sum(np.abs(st.amps[np.isin(w, [0, 3])]) ** 2)))
    w1 = math.sqrt(float(np.sum(np.abs(st.amps[w == 1]) ** 2)))
    w2 = math.sqrt(float(np.sum(np.abs(st.amps[w == 2]) ** 2)))
    assert abs(ghz - 0.5) < 1e-12
    assert abs(w1 - math.sqrt(6) / 4) < 1e-12
    assert abs(w2 - math.sqrt(6) / 4) < 1e-12


# --- targets -----------------------------------------------------------------

def test_ghz_target():
    t = make_target("GHZ", 3)
    assert t.amp_map() == {"000": 1 / math.sqrt(2), "111": 1 / math.sqrt(2)}


def test_dicke_target():
    t = make_target("Dicke", 3, 2)
    m = t.amp_map()
    assert set(m) == {"011", "101", "110"}
    assert all(abs(a - 1 / math.sqrt(3)) < 1e-15 for a in m.values())


def test_w_is_single_excitation_dicke():
    assert np.array_equal(make_target("W", 4).amps, make_target("Dicke", 4, 1).amps)


def test_gsum_balanced_case_is_plain_dicke():
    assert np.allclose(make_target("Gsum", 4, 2).amps, make_target("Dicke", 4, 2).amps)


def test_gsum_unbalanced_case():
    t = make_target("Gsum", 3, 1)
    want = (make_target("Dicke", 3, 1).amps + make_target("Dicke", 3, 2).amps) / math.sqrt(2)
    assert np.allclose(t.amps, want)


def test_gprime_carries_outcome_phase():
    zeta = 0.7
    t = make_target("Gprime", 3, 1, phase=zeta)
    m = t.amp_map()
    assert abs(m["001"] - np.exp(1j * zeta) / math.sqrt(6)) < 1e-15
    assert abs(m["011"] - np.exp(-1j * zeta) / math.sqrt(6)) < 1e-15


def test_bell_targets():
    assert make_target("Bell-phi+").amp_map() == {
        "00": 1 / math.sqrt(2), "11": 1 / math.sqrt(2)}
    assert make_target("Bell-psi+").amp_map() == {
        "01": 1 / math.sqrt(2), "10": 1 / math.sqrt(2)}


def test_target_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_target("Dicke", 3, 4)
    with pytest.raises(ValueError):
        make_target("Gprime", 4, 2)
    with pytest.raises(ValueError):
        make_target("nonsense", 2)


def test_state_constructor_enforces_invariants():
    bad_amps = np.full(4, 0.9, dtype=complex)          # not normalized
    with pytest.raises(ValueError):
        HybridState(n=2, alpha0=1.0, amps=bad_amps,
                    fields=np.zeros(4, dtype=complex),
                    env=np.zeros((4, 0), dtype=complex))
    big_fields = np.full(4, 3.0, dtype=complex)        # exceeds alpha0
    with pytest.raises(ValueError):
        HybridState(n=2, alpha0=1.0, amps=np.full(4, 0.5, dtype=complex),
                    fields=big_fields, env=np.zeros((4, 0), dtype=complex))


def test_state_arrays_are_read_only():
    st = init_plus_state(2, 1.0)
    with pytest.raises(ValueError):
        st.fields[0] = 9.0


# --- weight-sector state against the dense oracle ------------------------------

def _weight_sums(matrix, n):
    """(n+1) x (n+1) sums of a 2^n x 2^n matrix over weight blocks."""
    onehot = hamming_weights(n)[None, :] == np.arange(n + 1)[:, None]
    return onehot @ matrix @ onehot.T


def _assert_sectors_match(sector, dense):
    n = dense.n
    w = hamming_weights(n)
    scale = max(1.0, dense.alpha0)
    for k in range(n + 1):
        assert np.max(np.abs(dense.fields[w == k] - sector.fields[k])) \
            <= 1e-13 * scale, k
        assert abs(np.sum(np.abs(dense.amps[w == k]) ** 2)
                   - sector.probs[k]) <= 1e-15, k
    want = _weight_sums(env_overlap_matrix(dense), n) / 2**n
    assert np.max(np.abs(sector.coherence - want)) \
        <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("scenario, n", [
    ("two_qubit_X", None), ("three_qubit_P", None), ("gsum_X", None)]
    + [("n_qubit_P", n) for n in range(2, 11)])
@pytest.mark.parametrize("gamma", [0.0, 0.2, 0.5])
def test_sector_state_matches_dense_oracle(scenario, n, gamma):
    for alpha in (1.0, 3.0):
        sector = prepare_state(scenario, alpha, 2 / 3, gamma, n)
        dense = dense_state(scenario, alpha, 2 / 3, gamma, n)
        _assert_sectors_match(sector, dense)
        rule = build_decision_rule(scenario, math.sqrt(2 / 3) * alpha, n=n)
        lo, hi = integration_window(sector, rule.quadrature)
        vs = np.linspace(lo + 5.0, hi - 5.0, 7)
        dens = outcome_density(sector, rule.quadrature, vs)
        means = quadrature_mean(dense.fields, rule.quadrature)
        want = np.abs(dense.amps) ** 2 @ np.exp(
            -(vs[None, :] - means[:, None]) ** 2) / math.sqrt(math.pi)
        assert np.max(np.abs(dens - want)) <= 1e-12, alpha
        rhos = [conditional_atomic_state(dense, rule.quadrature, v) * d
                for v, d in zip(vs, dens)]
        for cls in rule.classes:
            got = class_overlap_integrand(sector, rule.quadrature, cls)(vs)
            for v, rho, g in zip(vs, rhos, got):
                t = target_at(rule, cls, v).amps
                want = np.real(t.conj() @ rho @ t)
                assert abs(g - want) <= 1e-12, (alpha, cls.target_name, v)


def test_sector_state_with_two_lossy_reflections():
    # gamma > 0 makes only r1 lossy; a generic pair exercises both bits
    pair = ReflectionPair(0.9 * np.exp(0.4j), 0.7 * np.exp(-1.1j))
    for n in (2, 4, 7):
        _assert_sectors_match(
            sector_states(n, [(0.8 * 2.0, pair)])[0],
            dense_state("n_qubit_P", 2.0, 0.64, n=n, pair=pair))


@pytest.mark.parametrize("n, seed, trials", [
    pytest.param(n, seed, 50_000, id=f"{n}-{seed}")
    for n, seed in [(2, 3), (5, 11), (9, 7), (10, 2024)]]
    # three full blocks and 5 trials: every block starts mid Philox counter
    + [(5, 13, 3 * MC_BLOCK_TRIALS + 5)]
    # 17-bit branch indices: picked when the package counted bits a byte at
    # a time (a partial third byte); only the frozen
    # oracles.sample_outcomes_v1 reads bytes now, and the case stays as the
    # one whose indices pass two bytes
    + [pytest.param(17, 5, 50_000, id="17-5")])
def test_sampled_weight_matches_dense_inverse_cdf(n, seed, trials):
    # distinct labels for every weight, so a different pick shows in the mean
    pair = ReflectionPair(np.exp(0.3j), 0.8 * np.exp(-0.9j))
    sector = sector_states(n, [(2.0, pair)])[0]
    dense = dense_state("n_qubit_P", 2.0, 1.0, n=n, pair=pair)
    rng = philox_stream(seed)
    cum = np.cumsum(np.abs(dense.amps) ** 2)
    cum[-1] = 1.0
    branch = np.searchsorted(cum, rng.random(trials), side="right")
    want = (quadrature_mean(dense.fields, "P")[branch]
            + standard_normals(rng.random(trials), rng.random(trials))
            / math.sqrt(2.0))
    # drawn in the blocks Monte Carlo uses, at their stream positions
    got = np.concatenate([
        sample_outcomes(sector, "P", trials, seed, start,
                        min(start + MC_BLOCK_TRIALS, trials))
        for start in range(0, trials, MC_BLOCK_TRIALS)])
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 5, 9, 13, 20])
def test_batched_states_equal_per_point_states(n):
    # every scenario's n (2 and 3) and n_qubit_P's range; alpha up to
    # MAX_ALPHA, gamma from lossless to nearly opaque, two channels; mixed
    # batches of 1 to 8 points must give each point its own run's bits; the
    # frozen per-point form keeps its (alpha, eta) signature
    params = solve_params_for_phase(n)
    points = [(alpha, math.sqrt(eta_sq),
               reflection_pair(replace(params, gamma=gamma)))
              for alpha in (0.3, 3.0, 50.0, MAX_ALPHA)
              for gamma in (0.0, 0.2, 1e3) for eta_sq in (1.0, 0.6667)]
    rng = np.random.default_rng(n)
    order = rng.permutation(len(points))
    cuts = np.cumsum(rng.integers(1, 9, size=len(points)))
    batches = [[points[i] for i in batch]
               for batch in np.split(order, cuts[cuts < len(points)])]
    if n in (13, 20):
        # a whole sweep block and a 128-point batch of mixed points: a step
        # whose rounding follows the batch size differs only in batches of
        # dozens of points
        batches += [[(float(alpha), math.sqrt(eta_sq),
                      reflection_pair(replace(params, gamma=float(gamma))))
                     for alpha, gamma, eta_sq in zip(
                         rng.uniform(0.0, 60.0, size),
                         rng.choice([0.0, 0.05, 0.2, 1.0, 1e3], size),
                         rng.choice([1.0, 0.6667, 0.3], size))]
                    for size in (SWEEP_BLOCK_POINTS, 128)]
    for chosen in batches:
        states = sector_states(n, [(eta * alpha, pair)
                                   for alpha, eta, pair in chosen])
        for state, point in zip(states, chosen):
            fields, coherence = sector_state_per_point(n, *point)
            assert same_bits(state.fields, fields), point
            assert same_bits(state.coherence, coherence), point
