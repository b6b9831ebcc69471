import math

import numpy as np
import pytest

from ricreg.bases import (
    basis_names,
    feature_matrix,
    feature_row,
    get_basis,
    residual_row,
)


class TestRegistry:
    def test_registered_names(self):
        assert basis_names() == ["fourier-21", "poly-trig-10", "quad-monomial-3d"]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown basis"):
            get_basis("legendre-5")

    def test_dimensions(self):
        assert get_basis("poly-trig-10").n == 10
        assert get_basis("fourier-21").n == 21
        assert get_basis("quad-monomial-3d").n == 10
        assert get_basis("quad-monomial-3d").arity == 3


class TestFeatureRow:
    def test_poly_trig_at_origin(self):
        row = feature_row(get_basis("poly-trig-10"), 0.0)
        np.testing.assert_array_equal(row, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0])

    def test_fourier_quarter_period(self):
        row = feature_row(get_basis("fourier-21"), 0.25)
        assert row[0] == 1.0
        assert row[1] == pytest.approx(1.0, abs=1e-15)  # sin(2 pi x)
        assert row[2] == pytest.approx(0.0, abs=1e-15)  # cos(2 pi x)

    def test_quadratic_monomials(self):
        row = feature_row(get_basis("quad-monomial-3d"), (1.0, 0.8, 0.5))
        np.testing.assert_allclose(
            row, [1, 1, 0.8, 0.5, 1, 0.64, 0.25, 0.8, 0.4, 0.5], atol=1e-15
        )

    def test_row_length_always_n(self):
        rng = np.random.default_rng(0)
        for name in ("poly-trig-10", "fourier-21"):
            basis = get_basis(name)
            for x in rng.uniform(0, 1, size=10):
                assert feature_row(basis, float(x)).shape == (basis.n,)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="scalar"):
            feature_row(get_basis("poly-trig-10"), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="length-3"):
            feature_row(get_basis("quad-monomial-3d"), 1.0)


class TestResidualRow:
    D, KAPPA = 0.01, -1.0

    def test_constant_element_has_no_diffusion_term(self):
        row = residual_row(get_basis("fourier-21"), 0.4, self.D, self.KAPPA)
        assert row[0] == self.KAPPA

    def test_sine_element_at_quarter_period(self):
        # D * (-(2 pi)^2 sin(pi/2)) + kappa * sin(pi/2)
        row = residual_row(get_basis("fourier-21"), 0.25, self.D, self.KAPPA)
        expected = -0.01 * (2 * math.pi) ** 2 - 1.0
        assert row[1] == pytest.approx(expected, abs=1e-12)
        assert row[1] == pytest.approx(-1.3947841760435743, abs=1e-12)

    def test_cosine_element_vanishes_at_quarter_period(self):
        row = residual_row(get_basis("fourier-21"), 0.25, self.D, self.KAPPA)
        assert abs(row[2]) < 1e-15

    def test_requires_second_derivative(self):
        with pytest.raises(ValueError, match="second derivative"):
            residual_row(get_basis("quad-monomial-3d"), 0.5, self.D, self.KAPPA)


class TestDerivativesAgainstFiniteDifferences:
    # Central differences at step 1e-5.  The tolerance is 1e-6 relative to the
    # derivative magnitude plus an absolute floor: the difference quotients
    # carry float64 cancellation noise (up to ~2e-5 for the second difference
    # at this step, including the rounding of x +/- h itself), and the top
    # Fourier harmonic's truncation term can land where the analytic
    # derivative is near zero.  A real defect would show at the derivative's
    # own scale, orders of magnitude above these floors.
    @pytest.mark.parametrize("name", ["poly-trig-10", "fourier-21"])
    def test_first_and_second_derivatives(self, name):
        basis = get_basis(name)
        rng = np.random.default_rng(7)
        h = 1e-5
        for x in rng.uniform(0.05, 0.95, size=100):
            x = float(x)
            up, mid, down = basis.eval(x + h), basis.eval(x), basis.eval(x - h)
            fd1 = (up - down) / (2 * h)
            fd2 = (up - 2 * mid + down) / (h * h)
            d1, d2 = basis.d1(x), basis.d2(x)
            assert np.all(np.abs(d1 - fd1) <= 1e-6 * np.abs(d1) + 1e-5)
            assert np.all(np.abs(d2 - fd2) <= 1e-6 * np.abs(d2) + 5e-5)


class TestFeatureMatrix:
    def test_stacks_rows(self):
        basis = get_basis("poly-trig-10")
        xs = [0.0, 0.5, 1.0]
        mat = feature_matrix(basis, xs)
        assert mat.shape == (3, 10)
        np.testing.assert_array_equal(mat[0], feature_row(basis, 0.0))

    @pytest.mark.parametrize("name", ["poly-trig-10", "fourier-21"])
    def test_bit_identical_to_stacked_rows(self, name):
        basis = get_basis(name)
        grids = [np.linspace(0.0, 10.0, 1001), np.linspace(0.0, 1.0, 1001),
                 [0.0, -0.5, 1e-300, 3, 7.25]]
        for xs in grids:
            reference = np.stack([feature_row(basis, float(x)) for x in np.asarray(xs)])
            mat = feature_matrix(basis, xs)
            assert mat.dtype == reference.dtype
            assert np.array_equal(mat, reference)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            feature_matrix(get_basis("poly-trig-10"), np.linspace(0.0, 1.0, 0))
        with pytest.raises(ValueError):
            feature_matrix(get_basis("fourier-21"), [])

    def test_vector_basis_rejected(self):
        with pytest.raises(ValueError, match="length-3"):
            feature_matrix(get_basis("quad-monomial-3d"), [0.0, 1.0, 2.0])
