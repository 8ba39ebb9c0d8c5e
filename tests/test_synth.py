"""Generator determinism, large-sample laws, and parameter validation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retlab
from retlab.errors import ValidationError
from retlab.series import Month, Panel, ReturnSeries
from retlab.synth import GeneratorSpec, generate


class TestMixtureGenerator:
    def test_single_component_large_sample_moments(self):
        spec = GeneratorSpec(
            "mixture", n=1_000_000, seed=8675309,
            parameters={"weights": [1.0], "means": [0.0], "sds": [1.0]},
        )
        out = generate(spec)
        assert isinstance(out, ReturnSeries)
        assert abs(np.mean(out.values)) < 0.005, f"mean {np.mean(out.values):.5f}"
        assert abs(np.std(out.values, ddof=1) - 1.0) < 0.005

    def test_two_component_weight_frequencies(self):
        spec = GeneratorSpec(
            "mixture", n=200_000, seed=4,
            parameters={"weights": [0.9, 0.1], "means": [0.0, 0.0], "sds": [1.0, 5.0]},
        )
        out = generate(spec)
        # tail component inflates kurtosis well above the Gaussian baseline
        x = out.values - out.values.mean()
        kurt = np.mean(x**4) / np.mean(x**2) ** 2 - 3.0
        assert kurt > 3.0, f"excess kurtosis {kurt:.2f}"

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError):
            generate(GeneratorSpec(
                "mixture", n=10, seed=0,
                parameters={"weights": [0.5, 0.4], "means": [0, 0], "sds": [1, 1]},
            ))


class TestGpdTailGenerator:
    def test_tail_quantiles_match_closed_form(self):
        u, xi, beta, rate = 3.0, 0.3, 1.0, 0.10
        spec = GeneratorSpec(
            "gpd-tail", n=2_000_000, seed=99,
            parameters={"threshold": u, "shape": xi, "scale": beta, "rate": rate},
        )
        out = generate(spec)
        for p in (0.95, 0.99):
            expected = u + beta / xi * (((1 - p) / rate) ** (-xi) - 1.0)
            got = np.quantile(out.values, p)
            assert abs(got - expected) < 0.03, f"p={p}: {got:.4f} vs {expected:.4f}"

    def test_exceedance_rate(self):
        spec = GeneratorSpec(
            "gpd-tail", n=500_000, seed=2,
            parameters={"threshold": 2.0, "shape": 0.0, "scale": 1.5, "rate": 0.2},
        )
        out = generate(spec)
        frac = np.mean(out.values > 2.0)
        assert abs(frac - 0.2) < 0.005

    def test_all_losses_positive(self):
        spec = GeneratorSpec(
            "gpd-tail", n=10_000, seed=3,
            parameters={"threshold": 1.0, "shape": -0.2, "scale": 0.5},
        )
        assert np.all(generate(spec).values > 0)


class TestGarchGenerator:
    def test_fat_tails_across_seeds(self):
        # theoretical excess kurtosis here is ~0.35, so n must be large
        # enough for the sample estimate to clear zero almost surely
        heavy = 0
        n_seeds = 100
        for seed in range(n_seeds):
            spec = GeneratorSpec(
                "garch", n=20_000, seed=seed,
                parameters={"omega": 0.1, "alpha": 0.1, "beta": 0.8},
            )
            x = generate(spec).values
            x = x - x.mean()
            kurt = np.mean(x**4) / np.mean(x**2) ** 2 - 3.0
            heavy += kurt > 0
        assert heavy >= 0.99 * n_seeds, f"excess kurtosis positive in {heavy}/{n_seeds}"

    def test_unconditional_variance(self):
        spec = GeneratorSpec(
            "garch", n=200_000, seed=12,
            parameters={"omega": 0.1, "alpha": 0.1, "beta": 0.8},
        )
        x = generate(spec).values
        assert abs(np.var(x) - 1.0) < 0.05  # omega/(1-alpha-beta) = 1

    def test_explosive_parameters_rejected(self):
        with pytest.raises(ValidationError):
            generate(GeneratorSpec(
                "garch", n=100, seed=0,
                parameters={"omega": 0.1, "alpha": 0.5, "beta": 0.6},
            ))


class TestVarGenerator:
    def test_zero_coefficients_give_iid_noise(self):
        spec = GeneratorSpec(
            "var", n=100_000, seed=5,
            parameters={
                "intercept": [1.0, -2.0],
                "coefficients": [],
                "residual_cov": [[2.0, 0.3], [0.3, 1.0]],
            },
        )
        panel = generate(spec)
        assert isinstance(panel, Panel)
        x = panel.values
        assert np.allclose(x.mean(axis=0), [1.0, -2.0], atol=0.03)
        assert np.allclose(np.cov(x.T), [[2.0, 0.3], [0.3, 1.0]], atol=0.05)
        # no serial dependence: lag-1 autocorrelation is noise-level
        for j in range(2):
            col = x[:, j] - x[:, j].mean()
            ac1 = np.dot(col[1:], col[:-1]) / np.dot(col, col)
            assert abs(ac1) < 0.02

    def test_var1_mean_matches_fixed_point(self):
        a = [[0.5, 0.1], [0.0, 0.3]]
        spec = GeneratorSpec(
            "var", n=200_000, seed=6,
            parameters={
                "intercept": [1.0, 1.0],
                "coefficients": [a],
                "residual_cov": [[1.0, 0.0], [0.0, 1.0]],
            },
        )
        panel = generate(spec)
        expected = np.linalg.solve(np.eye(2) - np.array(a), [1.0, 1.0])
        assert np.allclose(panel.values.mean(axis=0), expected, atol=0.05)

    def test_unstable_coefficients_rejected(self):
        with pytest.raises(ValidationError, match="stable"):
            generate(GeneratorSpec(
                "var", n=100, seed=0,
                parameters={
                    "intercept": [0.0],
                    "coefficients": [[[1.01]]],
                    "residual_cov": [[1.0]],
                },
            ))

    def test_path_is_bit_equal_to_a_one_row_loop(self):
        # the generator's recursion as a plain loop over rows, each lag a
        # 1-d matrix-vector product, from the unconditional mean
        rng = np.random.default_rng(17)
        for _ in range(30):
            k = int(rng.integers(1, 6))
            p = int(rng.integers(0, 4))
            coeffs = rng.normal(size=(p, k, k)) * 0.3 / k
            root = rng.normal(size=(k, k))
            cov = root @ root.T + k * np.eye(k)
            intercept = rng.normal(size=k)
            n, burn = int(rng.integers(1, 80)), int(rng.integers(0, 30))
            seed = int(rng.integers(2**32))
            panel = generate(GeneratorSpec(
                "var", n=n, seed=seed,
                parameters={
                    "intercept": intercept.tolist(),
                    "coefficients": coeffs.tolist(),
                    "residual_cov": cov.tolist(),
                    "burn": burn,
                },
            ))
            shocks = (
                np.random.default_rng(seed).standard_normal((n + burn, k))
                @ np.linalg.cholesky(cov).T
            )
            y = np.empty((n + burn + p, k))
            y[:p] = np.linalg.solve(np.eye(k) - coeffs.sum(axis=0), intercept)
            for t in range(n + burn):
                acc = intercept + shocks[t]
                for i in range(p):
                    acc = acc + coeffs[i] @ y[p + t - 1 - i]
                y[p + t] = acc
            assert np.array_equal(panel.values, y[p + burn :]), (k, p)

    def test_import_loads_no_scipy(self):
        # forecast and the IRF bootstrap import the VAR recursion from
        # here; generating data must not pay for scipy's import
        package_root = str(Path(retlab.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, retlab.synth; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestFactorPanelGenerator:
    def test_loadings_drive_correlation(self):
        spec = GeneratorSpec(
            "factor-panel", n=100_000, seed=7,
            parameters={
                "loadings": [[1.0], [1.0], [0.0]],
                "factor_sds": [2.0],
                "idio_sds": [0.5, 0.5, 1.0],
                "labels": ["a", "b", "c"],
            },
        )
        panel = generate(spec)
        corr = np.corrcoef(panel.values.T)
        assert corr[0, 1] > 0.9       # shared factor dominates
        assert abs(corr[0, 2]) < 0.02  # no common factor

    def test_means_shift_output(self):
        spec = GeneratorSpec(
            "factor-panel", n=50_000, seed=8,
            parameters={
                "loadings": [[1.0], [0.5]],
                "factor_sds": [1.0],
                "idio_sds": [1.0, 1.0],
                "means": [3.0, -1.0],
            },
        )
        panel = generate(spec)
        assert np.allclose(panel.values.mean(axis=0), [3.0, -1.0], atol=0.05)


class TestSpecPlumbing:
    def test_same_seed_bit_identical(self):
        spec = GeneratorSpec(
            "garch", n=500, seed=31337,
            parameters={"omega": 0.2, "alpha": 0.05, "beta": 0.9},
        )
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        base = {"weights": [1.0], "means": [0.0], "sds": [1.0]}
        a = generate(GeneratorSpec("mixture", n=100, seed=1, parameters=base))
        b = generate(GeneratorSpec("mixture", n=100, seed=2, parameters=base))
        assert not np.array_equal(a.values, b.values)

    def test_smooth_window_preserves_requested_length(self):
        spec = GeneratorSpec(
            "mixture", n=1000, seed=10,
            parameters={"weights": [1.0], "means": [0.0], "sds": [1.0],
                        "smooth_window": 3},
        )
        out = generate(spec)
        assert len(out) == 1000

    def test_start_month_honored(self):
        spec = GeneratorSpec(
            "mixture", n=12, seed=0,
            parameters={"weights": [1.0], "means": [0.0], "sds": [1.0],
                        "start": "1987-02", "label": "smoothed"},
        )
        out = generate(spec)
        assert out.grid.start == Month(1987, 2)
        assert out.label == "smoothed"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            GeneratorSpec("bootstrap", n=10, seed=0)
