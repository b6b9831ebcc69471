import math

import numpy as np
import pytest

from ricreg import problems
from ricreg.bases import (
    basis_names,
    feature_matrix,
    get_basis,
    residual_matrix,
)
from ricreg.rng import Xoshiro256pp


# The per-point evaluators the grid evaluators replaced, kept verbatim as the
# reference: one Python call per point, math.sin/math.cos and Python's **.
def _poly_trig():
    powers = (0, 1, 2, 3)
    freqs = (1.0, 5.0, 8.0, 9.0, 10.0, 12.0)

    def ev(x: float) -> np.ndarray:
        x = float(x)
        return np.array(
            [x**p for p in powers] + [math.sin(f * x) for f in freqs]
        )

    def d1(x: float) -> np.ndarray:
        x = float(x)
        return np.array(
            [p * x ** (p - 1) if p >= 1 else 0.0 for p in powers]
            + [f * math.cos(f * x) for f in freqs]
        )

    def d2(x: float) -> np.ndarray:
        x = float(x)
        return np.array(
            [p * (p - 1) * x ** (p - 2) if p >= 2 else 0.0 for p in powers]
            + [-(f**2) * math.sin(f * x) for f in freqs]
        )

    return ev, d1, d2


def _fourier(harmonics: int = 10):
    omegas = [2.0 * math.pi * l for l in range(1, harmonics + 1)]

    def ev(x: float) -> np.ndarray:
        x = float(x)
        out = [1.0]
        for w in omegas:
            out.append(math.sin(w * x))
            out.append(math.cos(w * x))
        return np.array(out)

    def d1(x: float) -> np.ndarray:
        x = float(x)
        out = [0.0]
        for w in omegas:
            out.append(w * math.cos(w * x))
            out.append(-w * math.sin(w * x))
        return np.array(out)

    def d2(x: float) -> np.ndarray:
        x = float(x)
        out = [0.0]
        for w in omegas:
            out.append(-(w**2) * math.sin(w * x))
            out.append(-(w**2) * math.cos(w * x))
        return np.array(out)

    return ev, d1, d2


def _quad_monomial_3d():
    def ev(x) -> np.ndarray:
        x1, x2, x3 = (float(v) for v in x)
        return np.array(
            [1.0, x1, x2, x3, x1 * x1, x2 * x2, x3 * x3, x1 * x2, x2 * x3, x1 * x3]
        )

    return (ev,)


POINT_REFERENCE = {
    "poly-trig-10": _poly_trig(),
    "fourier-21": _fourier(),
    "quad-monomial-3d": _quad_monomial_3d(),
}


def _reference_matrix(fn, xs) -> np.ndarray:
    return np.stack([fn(x) for x in xs])


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
        row = feature_matrix(get_basis("poly-trig-10"), [0.0])[0]
        np.testing.assert_array_equal(row, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0])

    def test_fourier_quarter_period(self):
        row = feature_matrix(get_basis("fourier-21"), [0.25])[0]
        assert row[0] == 1.0
        assert row[1] == pytest.approx(1.0, abs=1e-15)  # sin(2 pi x)
        assert row[2] == pytest.approx(0.0, abs=1e-15)  # cos(2 pi x)

    def test_quadratic_monomials(self):
        row = feature_matrix(get_basis("quad-monomial-3d"), [(1.0, 0.8, 0.5)])[0]
        np.testing.assert_allclose(
            row, [1, 1, 0.8, 0.5, 1, 0.64, 0.25, 0.8, 0.4, 0.5], atol=1e-15
        )

    def test_row_length_always_n(self):
        rng = np.random.default_rng(0)
        for name in ("poly-trig-10", "fourier-21"):
            basis = get_basis(name)
            for x in rng.uniform(0, 1, size=10):
                assert feature_matrix(basis, [float(x)])[0].shape == (basis.n,)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="scalar"):
            feature_matrix(get_basis("poly-trig-10"), [(1.0, 2.0, 3.0)])[0]
        with pytest.raises(ValueError, match="length-3"):
            feature_matrix(get_basis("quad-monomial-3d"), [1.0])[0]


class TestResidualRow:
    D, KAPPA = 0.01, -1.0

    def test_constant_element_has_no_diffusion_term(self):
        row = residual_matrix(get_basis("fourier-21"), [0.4], self.D, self.KAPPA)[0]
        assert row[0] == self.KAPPA

    def test_sine_element_at_quarter_period(self):
        # D * (-(2 pi)^2 sin(pi/2)) + kappa * sin(pi/2)
        row = residual_matrix(get_basis("fourier-21"), [0.25], self.D, self.KAPPA)[0]
        expected = -0.01 * (2 * math.pi) ** 2 - 1.0
        assert row[1] == pytest.approx(expected, abs=1e-12)
        assert row[1] == pytest.approx(-1.3947841760435743, abs=1e-12)

    def test_cosine_element_vanishes_at_quarter_period(self):
        row = residual_matrix(get_basis("fourier-21"), [0.25], self.D, self.KAPPA)[0]
        assert abs(row[2]) < 1e-15

    def test_requires_second_derivative(self):
        with pytest.raises(ValueError, match="second derivative"):
            residual_matrix(get_basis("quad-monomial-3d"), [0.5], self.D, self.KAPPA)[0]


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
        xs = rng.uniform(0.05, 0.95, size=100)
        up, mid, down = basis.eval(xs + h), basis.eval(xs), basis.eval(xs - h)
        fd1 = (up - down) / (2 * h)
        fd2 = (up - 2 * mid + down) / (h * h)
        d1, d2 = basis.d1(xs), basis.d2(xs)
        assert np.all(np.abs(d1 - fd1) <= 1e-6 * np.abs(d1) + 1e-5)
        assert np.all(np.abs(d2 - fd2) <= 1e-6 * np.abs(d2) + 5e-5)


class TestGridAgainstPointReference:
    # The grid evaluators must give, to the last bit, what the per-point
    # evaluators give: generated data and CLI output depend on it.
    GRIDS = [
        np.linspace(0.0, 10.0, 1001),
        np.linspace(0.0, 1.0, 1001),
        np.array([0.0, -0.5, 1e-300, 3, 7.25]),
        np.array([5e-324, -2.5e-310]),  # subnormals
        np.array([1e15, -3.0e12, 123456.789]),  # large |x|
    ]

    @pytest.mark.parametrize("name", ["poly-trig-10", "fourier-21"])
    @pytest.mark.parametrize("which", [0, 1, 2], ids=["eval", "d1", "d2"])
    def test_scalar_families(self, name, which):
        basis = get_basis(name)
        grid_fn = (basis.eval, basis.d1, basis.d2)[which]
        point_fn = POINT_REFERENCE[name][which]
        for xs in self.GRIDS:
            mat = grid_fn(xs)
            assert mat.shape == (len(xs), basis.n)
            assert np.array_equal(mat, _reference_matrix(point_fn, xs))

    def test_quad_monomial_3d_on_a_k_by_3_grid(self):
        basis = get_basis("quad-monomial-3d")
        rng = np.random.default_rng(3)
        for xs in (rng.uniform(-2.0, 2.0, size=(500, 3)),
                   np.array([[0.0, -0.5, 1e-300], [5e-324, 1e15, -7.25]]),
                   problems.gen_ko(50).states[::97]):
            mat = feature_matrix(basis, xs)
            assert mat.shape == (len(xs), 10)
            assert np.array_equal(mat, _reference_matrix(POINT_REFERENCE[basis.name][0], xs))

    @pytest.mark.parametrize("name", ["poly-trig-10", "fourier-21"])
    def test_rows_are_one_point_grids(self, name):
        basis = get_basis(name)
        xs = np.linspace(0.0, 10.0, 101)
        mat = residual_matrix(basis, xs, 0.01, -1.0)
        for i, x in enumerate(xs.tolist()):
            assert np.array_equal(feature_matrix(basis, [x])[0], feature_matrix(basis, xs)[i])
            assert np.array_equal(residual_matrix(basis, [x], 0.01, -1.0)[0], mat[i])


class TestGeneratorsAgainstPointReference:
    # Each generator's blocks, rebuilt one point at a time with the per-point
    # reference and the generator's former arithmetic, in its RNG order.
    @staticmethod
    def _assert_blocks(blocks, rows, ys, lams=None):
        assert len(blocks) == len(rows)
        for i, block in enumerate(blocks):
            assert np.array_equal(block.phi, rows[i][None, :])
            assert np.array_equal(block.y, [ys[i]])
            assert block.lam == (1.0 if lams is None else lams[i])

    def test_gen_sin10x(self):
        ev = POINT_REFERENCE["poly-trig-10"][0]
        rng = Xoshiro256pp(11)
        rows, ys = [], []
        for _ in range(300):
            x = 10.0 * rng.uniform()
            eps = rng.gaussian()
            rows.append(ev(x))
            ys.append(math.sin(10.0 * x) + 0.7 * eps)
        self._assert_blocks(problems.gen_sin10x(300, 11, 0.7).blocks, rows, ys)

    def test_gen_reaction_diffusion(self):
        ev, _, d2 = POINT_REFERENCE["fourier-21"]
        d_coeff, kappa = problems.REACTION_DIFFUSIVITY, problems.REACTION_RATE
        rng = Xoshiro256pp(5)
        rows, ys = [], []
        for _ in range(200):
            x = rng.uniform()
            eps = rng.gaussian()
            rows.append(d_coeff * d2(x) + kappa * ev(x))
            ys.append(float(problems._reaction_source(x)) + 0.1 * eps)
        rows += [ev(0.0), ev(1.0)]
        ys += [0.0, 0.0]
        prob = problems.gen_reaction_diffusion(200, 5, 0.1, lambda_b=2.5)
        self._assert_blocks(prob.blocks, rows, ys, lams=[1.0] * 200 + [2.5, 2.5])

    def test_gen_ko(self):
        ev = POINT_REFERENCE["quad-monomial-3d"][0]
        prob = problems.gen_ko(grid_count=300, solver_h=1e-3, fd_h=2e-3)
        states, offset, fd_h = prob.states, 2, 2e-3
        sample_idx = np.round(np.linspace(offset, len(states) - 1 - offset, 300)).astype(int)
        rows = [ev(states[j]) for j in sample_idx]
        for i, eq in enumerate(prob.equations):
            ys = [(states[j + offset, i] - states[j - offset, i]) / (2.0 * fd_h)
                  for j in sample_idx]
            self._assert_blocks(eq, rows, ys)


class TestFeatureMatrix:
    def test_stacks_rows(self):
        basis = get_basis("poly-trig-10")
        xs = [0.0, 0.5, 1.0]
        mat = feature_matrix(basis, xs)
        assert mat.shape == (3, 10)
        np.testing.assert_array_equal(mat[0], feature_matrix(basis, [0.0])[0])

    @pytest.mark.parametrize("name", ["poly-trig-10", "fourier-21"])
    def test_bit_identical_to_stacked_rows(self, name):
        basis = get_basis(name)
        grids = [np.linspace(0.0, 10.0, 1001), np.linspace(0.0, 1.0, 1001),
                 [0.0, -0.5, 1e-300, 3, 7.25]]
        for xs in grids:
            reference = np.stack([feature_matrix(basis, [float(x)])[0]
                                  for x in np.asarray(xs)])
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
