import cmath
import math

import numpy as np
import pytest

from hpsim.cavity import (CavityParams, reflection_coefficient, reflection_pair,
                          solve_params_for_phase)
from hpsim.errors import SingularParametersError
from oracles import rk4_relaxation, steady_state_oracle


def test_published_settings_two_node():
    # delta1 = delta2 = kappa/2, g = kappa/sqrt(2) -> r0 = i, r1 = -i
    params = CavityParams(0.5, 0.5, 1 / math.sqrt(2))
    assert abs(reflection_coefficient(params, 0) - 1j) < 1e-14
    assert abs(reflection_coefficient(params, 1) + 1j) < 1e-14


def test_published_settings_three_node():
    # delta = sqrt(3) kappa / 2, g^2 = 3 kappa^2 / 2 -> phases +-pi/3
    params = CavityParams(math.sqrt(3) / 2, math.sqrt(3) / 2, math.sqrt(1.5))
    pair = reflection_pair(params)
    assert abs(pair.phi0 - math.pi / 3) < 1e-14
    assert abs(pair.phi1 + math.pi / 3) < 1e-14


def test_decoupled_atom_leaves_reflection_unchanged():
    params = CavityParams(0.8, 1.3, 0.0, gamma=0.0)
    assert reflection_coefficient(params, 1) == reflection_coefficient(params, 0)


def test_gamma_extension_frozen_values():
    # by hand from the steady state at the two-node settings:
    # gamma = 0.2 kappa -> r1 = -(2/3) i ;  gamma = 0.5 kappa -> r1 = -(1/3) i
    g = 1 / math.sqrt(2)
    r1a = reflection_coefficient(CavityParams(0.5, 0.5, g, gamma=0.2), 1)
    r1b = reflection_coefficient(CavityParams(0.5, 0.5, g, gamma=0.5), 1)
    assert abs(r1a - (-2j / 3)) < 1e-12
    assert abs(r1b - (-1j / 3)) < 1e-12
    # the decoupled reflection never sees gamma
    r0 = reflection_coefficient(CavityParams(0.5, 0.5, g, gamma=0.5), 0)
    assert abs(r0 - 1j) < 1e-14


def test_unit_modulus_without_spontaneous_emission():
    rng = np.random.default_rng(1)
    for _ in range(200):
        d1, d2, g = rng.uniform(0.1, 5.0, 3)
        params = CavityParams(d1, d2, g)
        for p1 in (0, 1):
            r = reflection_coefficient(params, p1)
            assert abs(abs(r) - 1.0) < 1e-12


def test_lossy_contraction_with_spontaneous_emission():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d1, d2, g = rng.uniform(0.1, 5.0, 3)
        gamma = rng.uniform(0.05, 1.0)
        params = CavityParams(d1, d2, g, gamma=gamma)
        assert abs(reflection_coefficient(params, 1)) < 1.0
        assert abs(abs(reflection_coefficient(params, 0)) - 1.0) < 1e-12


def test_closed_form_matches_steady_state_oracle():
    rng = np.random.default_rng(3)
    for i in range(120):
        d1, d2, g = rng.uniform(0.1, 5.0, 3)
        gamma = (0.0, 0.2, 0.5)[i % 3]
        params = CavityParams(d1, d2, g, gamma=gamma)
        for p1 in (0, 1):
            closed = reflection_coefficient(params, p1)
            oracle = steady_state_oracle(params, p1)
            assert abs(closed.real - oracle.real) < 1e-8
            assert abs(closed.imag - oracle.imag) < 1e-8


def test_oracle_bare_cavity_value():
    # g = 0, delta2 = kappa/2: a_out/a_in = (i/2 - 1/2)/(i/2 + 1/2) = i
    params = CavityParams(0.7, 0.5, 0.0)
    assert abs(steady_state_oracle(params, 1) - 1j) < 1e-12


def test_rk4_relaxation_triangulates_oracle():
    # the dynamical route shares no algebra with either closed form or solve
    cases = [CavityParams(0.5, 0.5, 1 / math.sqrt(2)),
             CavityParams(0.5, 0.5, 1 / math.sqrt(2), gamma=0.5),
             CavityParams(1.2, 0.7, 1.5, gamma=0.2)]
    for params in cases:
        for p1 in (0, 1):
            slow = rk4_relaxation(params, p1, dt=0.005)
            fast = steady_state_oracle(params, p1)
            assert abs(slow - fast) < 1e-6


@pytest.mark.parametrize("n", range(2, 11))
def test_phase_solver_hits_target(n):
    params = solve_params_for_phase(n)
    pair = reflection_pair(params)
    assert abs(pair.phi0 - math.pi / n) < 1e-9
    assert abs(pair.phi1 + math.pi / n) < 1e-9
    assert abs(abs(pair.r0) - 1.0) < 1e-12
    assert abs(abs(pair.r1) - 1.0) < 1e-12


def test_phase_solver_reproduces_published_sets():
    p2 = solve_params_for_phase(2)
    assert abs(p2.delta1 - 0.5) < 1e-12
    assert abs(p2.delta2 - 0.5) < 1e-12
    assert abs(p2.g - 1 / math.sqrt(2)) < 1e-12
    p3 = solve_params_for_phase(3)
    assert abs(p3.delta1 - math.sqrt(3) / 2) < 1e-12
    assert abs(p3.g**2 - 1.5) < 1e-12


def test_phase_solver_n4_verified_by_direct_evaluation():
    cot = 1 / math.tan(math.pi / 8)
    p4 = solve_params_for_phase(4)
    assert abs(p4.delta1 - 0.5 * cot) < 1e-12
    assert abs(p4.g**2 - 0.5 * cot**2) < 1e-12
    assert abs(cmath.phase(reflection_coefficient(p4, 0)) - math.pi / 4) < 1e-12


def test_phase_solver_rejects_small_n():
    with pytest.raises(ValueError):
        solve_params_for_phase(1)


def test_singular_denominator_raises():
    # delta1 = 0, g = 0, gamma = 0 zeroes the coupled-state denominator
    params = CavityParams(0.0, 0.5, 0.0)
    with pytest.raises(SingularParametersError):
        reflection_coefficient(params, 1)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        CavityParams(0.5, 0.5, -1.0)
    with pytest.raises(ValueError):
        CavityParams(0.5, 0.5, 1.0, gamma=-0.1)
    with pytest.raises(ValueError):
        reflection_coefficient(CavityParams(0.5, 0.5, 1.0), 2)


def test_rk4_relaxation_respects_horizon():
    params = CavityParams(0.5, 0.5, 1 / math.sqrt(2))
    with pytest.raises(Exception) as err:
        rk4_relaxation(params, 1, dt=0.01, horizon=0.5)
    assert "converge" in str(err.value)
