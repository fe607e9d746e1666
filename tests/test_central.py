"""Central functionals: character polynomials, fusion dimensions, Hunt formula."""

import math
import time
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from numpy.polynomial.polynomial import Polynomial

from qperm.central import (
    AdInvariantSpec,
    DiscreteMeasure,
    _ad_invariant_values,
    _chebyshev_pass,
    ad_invariant_value,
    character_polynomial,
    chebyshev_u,
    dims,
    hunt_apply_polynomial,
)
from qperm.errors import ValidationError


class TestChebyshev:
    def test_small_values(self):
        assert chebyshev_u(0, 2.0) == 1.0
        assert chebyshev_u(1, 2.0) == 2.0
        assert chebyshev_u(2, 2.0) == 3.0
        assert chebyshev_u(3, 1.5) == 1.5**3 - 2 * 1.5

    def test_trig_identity(self):
        # U_s(2 cos t) = sin((s+1) t) / sin(t)
        for s in range(8):
            for theta in (0.3, 1.0, 2.2):
                want = math.sin((s + 1) * theta) / math.sin(theta)
                assert abs(chebyshev_u(s, 2 * math.cos(theta)) - want) < 1e-10

    def test_root_of_u4(self):
        assert abs(chebyshev_u(4, 2 * math.cos(math.pi / 5))) < 1e-12

    def test_derivative_matches_finite_difference(self):
        # _ad_invariant_values reads U_s' off the same pass
        h = 1e-6
        for s in (1, 3, 6):
            for x in (1.7, 2.3):
                u, du = next(islice(_chebyshev_pass(x), s, None))
                assert abs(u - chebyshev_u(s, x)) < 1e-12
                fd = (chebyshev_u(s, x + h) - chebyshev_u(s, x - h)) / (2 * h)
                assert abs(du - fd) < 1e-5

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError):
            chebyshev_u(-1, 2.0)


class TestDims:
    def test_n4_sequence(self):
        assert dims(4, 3).dims == (1, 3, 5, 7)

    def test_n5_value(self):
        assert dims(5, 2).dims[2] == 11

    def test_matches_chebyshev(self):
        for n in range(4, 10):
            data = dims(n, 8)
            root = math.sqrt(n)
            for s, d in enumerate(data.dims):
                assert abs(d - chebyshev_u(2 * s, root)) <= 1e-9 * max(1.0, d)

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            dims(3, 2)

    @pytest.mark.parametrize("n, largest", [(5, 736), (100, 154), (123, 147)])
    def test_float_range_names_the_largest_usable_s_max(self, n, largest):
        # at n = 123 the Chebyshev recursion overflows one level before d_s does
        with pytest.raises(ValidationError, match=f"the largest usable s_max is {largest}$"):
            dims(n, largest + 1)
        with pytest.raises(ValidationError, match=f"the largest usable s_max is {largest}$"):
            dims(n, 10 * largest)
        assert len(dims(n, largest).dims) == largest + 1

    def test_cross_check_is_one_chebyshev_pass(self, monkeypatch):
        # a fresh U_{2s} per level made dims O(s_max^2) and `qperm central` O(s_max^3)
        want = dims(4, 1000).dims
        monkeypatch.setattr("qperm.central.chebyshev_u", None)
        assert dims(4, 1000).dims == want == tuple(range(1, 2002, 2))

    def test_cli_cost_grows_slower_than_cubic(self, capsys):
        # smax 1000 took 36 s when each level re-ran every lower level's recursion
        from qperm.cli import main

        start = time.perf_counter()
        assert main(["central", "--n", "4", "--smax", "1000"]) == 0
        assert time.perf_counter() - start < 5.0
        assert '"smax":1000' in capsys.readouterr().out

    def test_cli_cost_is_linear_in_smax(self, capsys):
        # smax 2000 took 1.6 s when each level re-ran its own recursions
        from qperm.cli import main

        start = time.perf_counter()
        assert main(["central", "--n", "4", "--smax", "20000", "--atoms", "0:1"]) == 0
        assert time.perf_counter() - start < 5.0
        assert '"smax":20000' in capsys.readouterr().out


class TestFusion:
    def test_dimension_bookkeeping(self):
        # v^(r) (x) v^(s) is the sum of v^(t) for t = |r-s| .. r+s, each once
        data = dims(5, 8)
        for r in range(5):
            for s in range(5):
                total = sum(data.dims[t] for t in range(abs(r - s), r + s + 1))
                assert total == data.dims[r] * data.dims[s]

    def test_rules(self):
        # chi_r chi_s = sum of chi_t for t = |r-s| .. r+s, as exact polynomials
        for r in range(5):
            for s in range(5):
                want = sum((character_polynomial(t) for t in range(abs(r - s), r + s + 1)),
                           Polynomial([0.0]))
                got = character_polynomial(r) * character_polynomial(s)
                assert np.array_equal(got.coef, want.coef), (r, s)

    def test_character_product(self):
        chi = character_polynomial
        assert np.array_equal((chi(1) * chi(1)).coef, (chi(2) + chi(1) + chi(0)).coef)
        assert np.array_equal((chi(1) * chi(4)).coef, (chi(5) + chi(4) + chi(3)).coef)
        # the three-term rule needs s >= 1: chi_1 chi_0 is chi_1 alone
        assert np.array_equal((chi(1) * chi(0)).coef, chi(1).coef)


class TestCharacterPolynomials:
    def test_first_few(self):
        assert np.allclose(character_polynomial(0).coef, [1.0])
        assert np.allclose(character_polynomial(1).coef, [-1.0, 1.0])
        assert np.allclose(character_polynomial(2).coef, [1.0, -3.0, 1.0])

    def test_recursion_pointwise(self):
        chi1 = character_polynomial(1)
        xs = np.linspace(0.0, 9.0, 10)
        for s in range(1, 7):
            lhs = chi1(xs) * character_polynomial(s)(xs)
            rhs = (
                character_polynomial(s + 1)(xs)
                + character_polynomial(s)(xs)
                + character_polynomial(s - 1)(xs)
            )
            assert np.allclose(lhs, rhs, atol=1e-8)

    def test_evaluates_to_dimension_at_n(self):
        for n in (4, 5, 7):
            data = dims(n, 5)
            for s, d in enumerate(data.dims):
                assert abs(character_polynomial(s)(n) - d) < 1e-8 * max(1.0, d)

    def test_chebyshev_substitution(self):
        # chi_s(x) = U_{2s}(sqrt x)
        for s in range(6):
            poly = character_polynomial(s)
            for x in (0.5, 2.0, 6.25):
                assert abs(poly(x) - chebyshev_u(2 * s, math.sqrt(x))) < 1e-9


class TestDiscreteMeasure:
    def test_mass(self):
        nu = DiscreteMeasure([(0.0, 1.5), (2.0, 0.5)])
        assert nu.mass == 2.0

    def test_rejects_bad_atoms(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure([(0.0, 0.0)])
        with pytest.raises(ValidationError):
            DiscreteMeasure([(-1.0, 1.0)])

    @pytest.mark.parametrize("atom", [(float("nan"), 1.0), (1.0, float("nan")),
                                      (float("-inf"), 1.0), (1.0, float("inf"))])
    def test_rejects_non_finite_atoms(self, atom):
        with pytest.raises(ValidationError, match="finite"):
            DiscreteMeasure([(0.0, 1.0), atom])


class TestAdInvariant:
    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            AdInvariantSpec(3, 0.0)
        with pytest.raises(ValidationError):
            AdInvariantSpec(4, -1.0)
        with pytest.raises(ValidationError):
            AdInvariantSpec(4, 0.0, DiscreteMeasure([(4.0, 1.0)]))
        with pytest.raises(ValidationError):
            AdInvariantSpec(4, 0.0, DiscreteMeasure([(5.0, 1.0)]))

    @pytest.mark.parametrize("a", [float("nan"), float("inf")])
    def test_rejects_non_finite_drift(self, a):
        with pytest.raises(ValidationError, match="finite"):
            AdInvariantSpec(4, a)

    def test_hunt_on_polynomial(self):
        spec = AdInvariantSpec(4, 0.5, DiscreteMeasure([(1.0, 2.0)]))
        f = Polynomial([0.0, 1.0])  # f(x) = x
        # -a f'(4) + w (f(1) - f(4)) / (4 - 1)
        assert abs(hunt_apply_polynomial(spec, f) - (-0.5 + 2.0 * (1 - 4) / 3)) < 1e-12

    def test_single_atom_worked_example(self):
        # atom at 0 with weight w, no drift, s = 1, n = 4: value -w/3
        spec = AdInvariantSpec(4, 0.0, DiscreteMeasure([(0.0, 1.0)]))
        assert abs(ad_invariant_value(spec, 1, 1, 1) + 1.0 / 3.0) < 1e-12

    def test_pure_drift_value(self):
        # chi_1' = 1, d_1 = 3: value -a/3
        spec = AdInvariantSpec(4, 2.0)
        assert abs(ad_invariant_value(spec, 1, 1, 1) + 2.0 / 3.0) < 1e-12

    def test_level_zero_vanishes(self):
        spec = AdInvariantSpec(5, 1.0, DiscreteMeasure([(1.0, 1.0)]))
        assert ad_invariant_value(spec, 0, 1, 1) == 0.0

    def test_off_diagonal_vanishes(self):
        spec = AdInvariantSpec(4, 1.0, DiscreteMeasure([(2.0, 1.0)]))
        assert ad_invariant_value(spec, 2, 1, 2) == 0.0

    def test_matches_polynomial_route(self):
        spec = AdInvariantSpec(6, 0.7, DiscreteMeasure([(0.0, 1.0), (2.5, 0.4)]))
        for s in range(1, 5):
            direct = ad_invariant_value(spec, s, 1, 1)
            d_s = dims(6, s).dims[s]
            via_poly = hunt_apply_polynomial(spec, character_polynomial(s)) / d_s
            assert abs(direct - via_poly) < 1e-9 * (1.0 + abs(direct))

    def test_one_pass_matches_each_level_bit_for_bit(self):
        # the Hunt formula level by level, each from its own Chebyshev recursions
        spec = AdInvariantSpec(5, 0.7, DiscreteMeasure([(0.0, 2.0), (0.5, 1.2), (3.9, 0.3)]))
        root = math.sqrt(5)
        want = []
        for s in range(60):
            u_n, du_n = next(islice(_chebyshev_pass(root), 2 * s, None))
            total = -0.7 * du_n / (2.0 * root)
            for x, w in spec.nu.atoms:
                total += w * (chebyshev_u(2 * s, math.sqrt(x)) - u_n) / (5 - x)
            want.append(total / u_n)
        assert _ad_invariant_values(spec, 59) == want
        assert [ad_invariant_value(spec, s, 1, 1) for s in range(60)] == want
        assert _ad_invariant_values(spec, 0) == [0.0]

    def test_index_range_checked(self):
        spec = AdInvariantSpec(4, 1.0)
        with pytest.raises(ValidationError):
            ad_invariant_value(spec, 1, 4, 4)  # d_1 = 3

    @pytest.mark.parametrize("s, j, k, message", [(-1, 1, 1, "s must be >= 0"),
                                                  (1, 4, 1, "indices must lie in 1..3"),
                                                  (2, 1, 0, "indices must lie in 1..5")])
    def test_level_and_index_messages(self, s, j, k, message):
        with pytest.raises(ValidationError, match=message):
            ad_invariant_value(AdInvariantSpec(4, 1.0), s, j, k)

    def test_hunt_positivity_on_vanishing_squares(self, rng):
        # f = |g|^2 with g(n) = 0 gives L f >= 0
        n = 6
        spec = AdInvariantSpec(
            n, float(rng.random()), DiscreteMeasure([(0.0, 0.8), (3.0, 0.3), (5.5, 0.1)])
        )
        for _ in range(50):
            coefs = rng.normal(size=3) + 1j * rng.normal(size=3)
            g = Polynomial(coefs) * Polynomial([-float(n), 1.0])
            gbar = Polynomial(g.coef.conjugate())
            f = Polynomial((g * gbar).coef.real)
            assert hunt_apply_polynomial(spec, f) >= -1e-9


class TestHCoefficient:
    """ad_h(u^(s)_jk) = (delta_jk / d_s) chi_s, as ad_invariant_value applies it."""

    def test_diagonal_value(self):
        # the same value at every diagonal index: the Hunt value of chi_s over d_s
        spec = AdInvariantSpec(4, 0.3, DiscreteMeasure([(1.0, 2.0)]))
        for s, d_s in ((1, 3), (2, 5)):
            values = {ad_invariant_value(spec, s, j, j) for j in range(1, d_s + 1)}
            assert len(values) == 1
            want = hunt_apply_polynomial(spec, character_polynomial(s)) / d_s
            assert abs(values.pop() - want) < 1e-12 * (1.0 + abs(want))

    def test_off_diagonal_zero(self):
        spec = AdInvariantSpec(4, 0.3, DiscreteMeasure([(1.0, 2.0)]))
        assert ad_invariant_value(spec, 1, 1, 1) != 0.0
        for j in range(1, 4):
            for k in range(1, 4):
                if j != k:
                    assert ad_invariant_value(spec, 1, j, k) == 0.0

    def test_exactness(self):
        # one atom at 0, no drift: w (chi_s(0) - d_s) / (n d_s) with chi_s(0) = (-1)^s
        spec = AdInvariantSpec(4, 0.0, DiscreteMeasure([(0.0, 1.0)]))
        for s in range(11):
            d_s = dims(4, s).dims[s]
            want = Fraction((-1) ** s - d_s, 4 * d_s)
            assert abs(ad_invariant_value(spec, s, 1, 1) - float(want)) < 1e-12
        assert ad_invariant_value(spec, 3, 7, 7) == ad_invariant_value(spec, 3, 1, 1)  # d_3 = 7
