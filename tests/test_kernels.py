"""Kernel and coupling tests.

Covers frozen scalar-kernel values, the pairwise matrix against the
closed forms on scipy's cdist distances with subnormal values flushed to
zero, an import path free of scipy.spatial, coupling constructors and
their spectra, the multi-task kernels as sums of separable terms, and the
point-major block assembly, with positive-semidefiniteness checked on
randomized inputs.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtbandit import kernels

# Frozen by evaluating the closed forms with stdlib math.
EXP_MINUS_HALF = 0.6065306597126334
MATERN52_AT_HALF = 0.8286491424181255
TINY = np.finfo(float).tiny


def _closed_form(k, r):
    """The kernel formula at distances r, without the flush of small values."""
    if isinstance(k, kernels.SquaredExponential):
        return np.exp(-0.5 * (r / k.lengthscale) ** 2)
    s = np.sqrt(5.0) * r / k.lengthscale
    return (1.0 + s + s**2 / 3.0) * np.exp(-s)


class TestScalarKernels:
    def test_squared_exponential_frozen_value(self):
        """k(0, 1) with unit lengthscale is exp(-1/2)."""
        k = kernels.SquaredExponential(1.0)
        assert k(np.array([0.0]), np.array([1.0])) == pytest.approx(EXP_MINUS_HALF, abs=1e-15)

    def test_squared_exponential_lengthscale_scaling(self):
        """Halving the lengthscale equals doubling the distance."""
        a, b = np.array([0.0]), np.array([0.5])
        assert kernels.SquaredExponential(0.5)(a, b) == pytest.approx(
            kernels.SquaredExponential(1.0)(a, 2 * b), abs=1e-15
        )

    def test_matern52_frozen_value(self):
        k = kernels.Matern52(1.0)
        assert k(np.array([0.0]), np.array([0.5])) == pytest.approx(MATERN52_AT_HALF, abs=1e-14)

    def test_unit_variance(self):
        x = np.array([0.3, -1.2])
        for k in (kernels.SquaredExponential(0.7), kernels.Matern52(0.2)):
            assert k(x, x) == pytest.approx(1.0, abs=1e-15)
            assert np.all(k.diag(np.array([[0.1, 0.2], [3.0, 4.0]])) == 1.0)

    def test_pairwise_matches_pointwise(self):
        rng = np.random.default_rng(5)
        X, Z = rng.random((4, 2)), rng.random((3, 2))
        for k in (kernels.SquaredExponential(0.4), kernels.Matern52(0.8)):
            K = k.pairwise(X, Z)
            assert K.shape == (4, 3)
            for i in range(4):
                for j in range(3):
                    assert K[i, j] == pytest.approx(k(X[i], Z[j]), abs=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_lengthscale_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="lengthscale"):
            kernels.SquaredExponential(bad)

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(-3, 3),
        )
    )
    def test_gram_is_psd(self, X):
        """Every scalar Gram matrix is PSD up to roundoff."""
        K = kernels.SquaredExponential(0.5).pairwise(X, X)
        assert np.linalg.eigvalsh(K).min() >= -1e-8


class TestPairwise:
    @pytest.mark.parametrize("k", [kernels.SquaredExponential(0.2), kernels.Matern52(0.2)])
    def test_no_subnormal_entries(self, k):
        """Distances across the underflow of the closed form give 0.0 or a
        normal float, never a subnormal one."""
        r = np.linspace(0.0, 200.0, 200_001)
        raw = _closed_form(k, r)
        assert np.any((raw > 0) & (raw < TINY))  # the sweep crosses the subnormal band
        K = k.pairwise(np.zeros((1, 1)), r[:, None])
        assert not np.any((K > 0) & (K < TINY))

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("k", [kernels.SquaredExponential(0.3), kernels.Matern52(0.05)])
    def test_closed_form_on_cdist_distances(self, d, k):
        """pairwise equals the closed form on cdist distances bit for bit
        wherever that is at least the smallest normal float, and 0.0 elsewhere."""
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(d)
        X, Z = rng.normal(size=(40, d)) * 5.0, rng.normal(size=(30, d)) * 5.0
        raw = _closed_form(k, cdist(X, Z))
        assert np.any(raw >= TINY) and np.any(raw < TINY)
        np.testing.assert_array_equal(k.pairwise(X, Z), np.where(raw >= TINY, raw, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            kernels.SquaredExponential(1.0).pairwise(np.zeros((2, 3)), np.zeros((2, 2)))

    @pytest.mark.parametrize("module", ["scipy.spatial", "scipy"])
    def test_cli_import_skips_scipy_spatial(self, module):
        """Distances need no scipy.spatial and the couplings' eigen-solvers no
        SciPy, so a fresh import of the CLI loads neither."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, mtbandit.cli; print({module!r} in sys.modules)"],
            env=env, capture_output=True, text=True,
        )
        assert proc.stdout.strip() == "False", proc.stderr


class TestCouplings:
    def test_omega_coupling_spectrum(self):
        """omega I + (1-omega) 11^T/n has one unit eigenvalue, rest omega."""
        for omega, n in [(0.0, 3), (0.25, 4), (0.75, 2), (1.0, 5)]:
            spec = kernels.coupling_spectrum(kernels.omega_coupling(omega, n))
            np.testing.assert_allclose(
                spec.eigenvalues, [1.0] + [omega] * (n - 1), atol=1e-12
            )

    def test_omega_zero_is_rank_one(self):
        B = kernels.omega_coupling(0.0, 4)
        np.testing.assert_allclose(B, np.full((4, 4), 0.25), atol=1e-15)
        assert np.linalg.matrix_rank(B) == 1

    def test_omega_one_is_identity(self):
        np.testing.assert_allclose(kernels.omega_coupling(1.0, 3), np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_omega_range(self, bad):
        with pytest.raises(ValueError, match="omega"):
            kernels.omega_coupling(bad, 3)

    def test_gram_coupling_is_psd_and_reproducible(self):
        B1 = kernels.gram_coupling(4, np.random.default_rng(11))
        B2 = kernels.gram_coupling(4, np.random.default_rng(11))
        np.testing.assert_array_equal(B1, B2)
        assert np.linalg.eigvalsh(B1).min() >= -1e-12
        np.testing.assert_allclose(B1, B1.T, atol=1e-15)

    def test_validate_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            kernels.validate_coupling(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_validate_rejects_indefinite_naming_eigenvalue(self):
        B = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError, match="-1"):
            kernels.validate_coupling(B)

    def test_validate_rejects_non_square(self):
        with pytest.raises(ValueError):
            kernels.validate_coupling(np.ones((2, 3)))

    def test_spectrum_reconstructs(self):
        B = kernels.gram_coupling(5, np.random.default_rng(3))
        spec = kernels.coupling_spectrum(B)
        np.testing.assert_allclose(spec.reconstruct(), B, atol=1e-12)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)  # descending


class TestMultiTaskKernels:
    def test_icm_call_is_scaled_coupling(self):
        B = kernels.omega_coupling(0.5, 3)
        k = kernels.SquaredExponential(0.4)
        gamma = kernels.ICMKernel(k, B)
        x, z = np.array([0.1, 0.2]), np.array([0.5, -0.3])
        np.testing.assert_allclose(gamma(x, z), k(x, z) * B, atol=1e-15)

    def test_icm_kappa_is_top_eigenvalue(self):
        B = kernels.gram_coupling(4, np.random.default_rng(2))
        gamma = kernels.ICMKernel(kernels.SquaredExponential(0.3), B)
        assert gamma.kappa == pytest.approx(np.linalg.eigvalsh(B).max(), abs=1e-12)

    def test_diagonal_call(self):
        gamma = kernels.DiagonalKernel(
            [kernels.SquaredExponential(0.3), kernels.Matern52(0.6)]
        )
        x, z = np.array([0.0]), np.array([0.4])
        expected = np.diag([gamma.scalars[0](x, z), gamma.scalars[1](x, z)])
        np.testing.assert_allclose(gamma(x, z), expected, atol=1e-15)
        assert gamma.kappa == 1.0

    def test_sum_separable_kappa(self):
        B1 = kernels.omega_coupling(0.5, 3)
        B2 = kernels.gram_coupling(3, np.random.default_rng(0))
        gamma = kernels.SumSeparableKernel(
            [(kernels.SquaredExponential(0.3), B1), (kernels.Matern52(0.5), B2)]
        )
        assert gamma.kappa == pytest.approx(
            np.linalg.eigvalsh(B1 + B2).max(), abs=1e-12
        )

    def test_icm_block_matrix_is_kronecker(self):
        """Point-major layout makes the ICM block matrix kron(K, B)."""
        rng = np.random.default_rng(8)
        B = kernels.gram_coupling(3, rng)
        k = kernels.SquaredExponential(0.4)
        gamma = kernels.ICMKernel(k, B)
        X = rng.random((5, 2))
        G = kernels.block_kernel_matrix(gamma, X)
        np.testing.assert_allclose(G, np.kron(k.pairwise(X, X), B), atol=1e-12)

    def test_block_matrix_blocks(self):
        """G[i*n:(i+1)*n, j*n:(j+1)*n] equals Gamma(x_i, x_j)."""
        rng = np.random.default_rng(9)
        gamma = kernels.DiagonalKernel([kernels.SquaredExponential(0.5)] * 2)
        X = rng.random((4, 1))
        G = kernels.block_kernel_matrix(gamma, X)
        n = gamma.n
        for i in range(4):
            for j in range(4):
                np.testing.assert_allclose(
                    G[i * n : (i + 1) * n, j * n : (j + 1) * n],
                    gamma(X[i], X[j]),
                    atol=1e-14,
                )

    def test_cross_block_shapes(self):
        rng = np.random.default_rng(10)
        gamma = kernels.ICMKernel(
            kernels.SquaredExponential(0.3), kernels.omega_coupling(0.4, 3)
        )
        X, z = rng.random((6, 2)), rng.random(2)
        C = kernels.cross_block(gamma, X, z)
        assert C.shape == (18, 3)
        empty = kernels.cross_block(gamma, np.zeros((0, 2)), z)
        assert empty.shape == (0, 3)
        Z = rng.random((4, 2))
        assert kernels.cross_block(gamma, X, Z).shape == (18, 12)
        assert kernels.cross_block(gamma, np.zeros((0, 2)), Z).shape == (0, 12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 10_000))
    def test_block_matrix_psd(self, n, t, seed):
        """Multi-task Gram matrices are PSD for every variant."""
        rng = np.random.default_rng(seed)
        X = rng.random((t, 2))
        variants = [
            kernels.ICMKernel(kernels.SquaredExponential(0.3), kernels.gram_coupling(n, rng)),
            kernels.DiagonalKernel([kernels.SquaredExponential(0.3)] * n),
            kernels.SumSeparableKernel(
                [
                    (kernels.SquaredExponential(0.3), kernels.omega_coupling(0.5, n)),
                    (kernels.Matern52(0.7), kernels.gram_coupling(n, rng)),
                ]
            ),
        ]
        for gamma in variants:
            G = kernels.block_kernel_matrix(gamma, X)
            np.testing.assert_allclose(G, G.T, atol=1e-12)
            assert np.linalg.eigvalsh(G).min() >= -1e-8

    @pytest.mark.parametrize("variant", ["icm", "sum-separable", "diagonal"])
    def test_diag_blocks_match_pointwise(self, variant):
        """The vectorised diag_blocks equals Gamma(x, x) point by point."""
        rng = np.random.default_rng(11)
        se, matern = kernels.SquaredExponential(0.3), kernels.Matern52(0.6)
        gamma = {
            "icm": kernels.ICMKernel(se, kernels.gram_coupling(3, rng)),
            "sum-separable": kernels.SumSeparableKernel(
                [(se, kernels.omega_coupling(0.5, 3)), (matern, kernels.gram_coupling(3, rng))]
            ),
            "diagonal": kernels.DiagonalKernel([se, matern, se]),
        }[variant]
        X = rng.random((7, 2))
        expected = np.array([gamma.diag_block(x) for x in X])
        np.testing.assert_array_equal(gamma.diag_blocks(X), expected)
        assert gamma.diag_blocks(np.zeros((0, 2))).shape == (0, 3, 3)

    @pytest.mark.parametrize(
        "variant", ["icm-gram", "icm-omega-0", "diagonal-shared", "diagonal-mixed"]
    )
    def test_constructors_are_sums_of_separable_terms(self, variant):
        """ICM and diagonal kernels evaluate exactly as the sum of their terms."""
        rng = np.random.default_rng(12)
        se, matern = kernels.SquaredExponential(0.3), kernels.Matern52(0.6)
        gamma = {
            "icm-gram": kernels.ICMKernel(se, kernels.gram_coupling(3, rng)),
            "icm-omega-0": kernels.ICMKernel(matern, kernels.omega_coupling(0.0, 3)),
            "diagonal-shared": kernels.DiagonalKernel([se] * 3),
            "diagonal-mixed": kernels.DiagonalKernel([se, matern, se]),
        }[variant]
        reference = kernels.SumSeparableKernel(gamma.terms)
        X, Z = rng.random((6, 2)), rng.random((4, 2))
        np.testing.assert_array_equal(gamma(X[0], Z[0]), reference(X[0], Z[0]))
        np.testing.assert_array_equal(gamma._cross(X, Z), reference._cross(X, Z))
        np.testing.assert_array_equal(gamma.diag_blocks(X), reference.diag_blocks(X))
        if isinstance(gamma, kernels.ICMKernel):
            assert gamma.kappa == gamma.spectrum.eigenvalues[0]
        else:
            assert gamma.kappa == 1.0

    def test_operator_norm(self):
        M = np.diag([3.0, 1.0, 2.0])
        assert kernels.operator_norm(M) == pytest.approx(3.0, abs=1e-12)
