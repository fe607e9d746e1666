"""The oracles against cases worked out by hand."""

import math

import numpy as np
import pytest

import oracles


def test_two_cycle_joint_law():
    sigma, rates, t = (2, 1, 4, 3), (1.0, 0.7), 0.8
    odd = lambda mu: (1.0 - math.exp(-2.0 * mu)) / 2.0  # noqa: E731
    both = oracles.joint_law(sigma, rates, t, [(1, 2), (3, 4)])
    assert both == pytest.approx(odd(0.8) * odd(0.56), abs=1e-15)
    # far from the 0.15667 that the two-cycle triple gives (ROADMAP item 4)
    sigma6 = (2, 3, 4, 1, 6, 5)
    value = oracles.joint_law(sigma6, rates, t, [(1, 2), (5, 6), (2, 3)])
    shift1 = oracles.modular_poisson(0.8, 4, 1)
    assert value == pytest.approx(shift1 * odd(0.56), abs=1e-15)
    assert value == pytest.approx(0.12150, abs=5e-6)


def test_joint_law_zero_and_fixed_points():
    sigma = (2, 3, 1, 4)  # 3-cycle, 4 fixed
    assert oracles.joint_law(sigma, (1.0,), 0.5, [(1, 4)]) == 0.0  # across cycles
    assert oracles.joint_law(sigma, (1.0,), 0.5, [(4, 1)]) == 0.0  # a fixed point moves
    assert oracles.joint_law(sigma, (1.0,), 0.5, [(1, 2), (2, 1)]) == 0.0  # two shifts
    stay = oracles.joint_law(sigma, (1.0,), 0.5, [(4, 4), (1, 1)])
    assert stay == pytest.approx(oracles.modular_poisson(0.5, 3, 0))


def test_modular_poisson_matches_parity_formula():
    for mu in (0.1, 1.0, 4.0):
        assert oracles.modular_poisson(mu, 2, 0) == pytest.approx((1 + math.exp(-2 * mu)) / 2)
        assert sum(oracles.modular_poisson(mu, 5, r) for r in range(5)) == pytest.approx(1.0)


def test_gcd_sums_and_cycle_counts():
    assert [oracles.fourier_h1(n) for n in (4, 6, 7, 8, 9, 16)] == [1, 4, 0, 5, 4, 17]
    assert oracles.perm_h1((2, 1, 4, 5, 3, 6, 7, 8)) == 1
    assert oracles.perm_h1((2, 1, 4, 5, 3, 6, 7, 8), mult=2) == 2
    assert oracles.perm_h1((1, 2, 3)) == 0
    assert oracles.perm_h1((2, 3, 1)) == 0


def test_c3_two_block_counterexample_is_not_symmetric():
    P = np.diag([1.0, 1.0, 0.0]).astype(complex)
    Q = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    v = np.array([1.0, 0.0, 1.0j])
    # <zeta, xi> = conj(zeta_3) * i = (2 - i) / 3 at k = 0
    assert oracles.two_block_pairing(P, Q, v - P @ v, v - Q @ v) == pytest.approx(1.0 / 3.0)
    real = np.array([1.0, 2.0, 3.0])
    assert oracles.two_block_pairing(P, Q.real, real - P.real @ real, real - Q.real @ real) == 0.0


def test_meet_rank_of_shared_direction():
    e = np.eye(3)
    P = np.eye(3) - np.outer(e[0], e[0])
    Q = np.eye(3) - np.outer(e[0], e[0]) - np.outer(e[1], e[1])
    assert oracles.meet_rank(P, Q) == 1
    assert oracles.meet_rank(P, np.eye(3) - np.outer(e[2], e[2])) == 0


def test_expm_and_marginals():
    t = 0.7
    rot = oracles.expm(np.array([[0.0, t], [-t, 0.0]]))
    assert np.allclose(rot, [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]], atol=1e-14)
    sigma, rates = (2, 3, 4, 1), (1.3,)
    A = oracles.generator_matrix(oracles.permutation_blocks(sigma), np.sqrt(1.3) * np.ones((4, 1)))
    exact = oracles.classical_marginals(sigma, rates, t)
    assert np.allclose(oracles.expm(t * A), exact, atol=1e-13)
    assert np.allclose(exact.sum(axis=1), 1.0)


def test_fourier_cocycles_and_coboundaries():
    blocks = oracles.hadamard_blocks(oracles.fourier_matrix(4))
    basis = oracles.cocycle_basis(blocks)
    assert basis.shape == (4, 16)
    for row in basis:
        assert oracles.cocycle_defect(blocks, row.reshape(4, 4)) < 1e-12
    cob = oracles.coboundaries(blocks)
    assert oracles.rank(cob) == 3  # so h1 = 4 - 3 = 1 = fourier_h1(4)
    assert oracles.coboundary_residual(blocks, cob[:, 0].reshape(4, 4)) < 1e-12
