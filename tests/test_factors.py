"""Covariance PCA, scree tables, factor regressions, residual panels."""

import numpy as np
import pytest

from retlab.errors import (
    DegenerateVarianceError,
    InsufficientDataError,
    SingularDesignError,
    ValidationError,
)
from retlab.factors import (
    FactorRegression,
    PcaResult,
    ScreeRow,
    factor_regression,
    pca,
    residual_panel,
    scree,
)
from retlab.series import Month, Panel, ReturnSeries, Series, TimeGrid
from retlab.synth import GeneratorSpec, generate


def panel_of(columns, labels, start="2000-01"):
    mat = np.column_stack(columns)
    grid = TimeGrid(Month.parse(start), mat.shape[0])
    return Panel(tuple(
        ReturnSeries(lab, grid, mat[:, j]) for j, lab in enumerate(labels)
    ))


def random_panel(seed, n=400, k=4, scale=2.0):
    rng = np.random.default_rng(seed)
    mixing = rng.normal(size=(k, k))
    data = rng.standard_normal((n, k)) @ mixing * scale / k
    return panel_of(list(data.T), [f"S{j}" for j in range(k)])


class TestPca:
    def test_diagonal_covariance_recovers_axes(self):
        rng = np.random.default_rng(42)
        n = 200_000
        a = rng.standard_normal(n) * 2.0   # variance 4
        b = rng.standard_normal(n) * 1.0   # variance 1
        result = pca(panel_of([a, b], ["a", "b"]))
        assert np.allclose(result.eigenvalues, [4.0, 1.0], atol=0.05)
        assert np.allclose(np.abs(result.loadings), np.eye(2), atol=0.02)
        # sign convention: dominant entries positive
        assert result.loadings[0, 0] > 0 and result.loadings[1, 1] > 0

    def test_two_correlated_series_first_share(self):
        # standardized pair with correlation rho: first component carries
        # (1+rho)/2 of the variance
        rho = 0.5
        rng = np.random.default_rng(43)
        n = 100_000
        common = rng.standard_normal(n)
        a = common
        b = rho * common + np.sqrt(1 - rho**2) * rng.standard_normal(n)
        result = pca(panel_of([a, b], ["a", "b"]))
        first_share = result.cumulative_share[0]
        assert abs(first_share - 0.75) < 0.01, f"first share {first_share:.4f}"

    def test_eigenvalue_sum_equals_trace(self):
        panel = random_panel(1)
        result = pca(panel)
        x = panel.values - panel.values.mean(axis=0)
        trace = np.trace(x.T @ x / (len(panel) - 1))
        assert result.eigenvalues.sum() == pytest.approx(trace, rel=1e-8)

    def test_loadings_orthonormal(self):
        result = pca(random_panel(2))
        gram = result.loadings.T @ result.loadings
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8

    def test_scores_uncorrelated_with_eigenvalue_variances(self):
        result = pca(random_panel(3, n=1000))
        cov = result.scores.T @ result.scores / (result.scores.shape[0] - 1)
        assert np.allclose(np.diag(cov), result.eigenvalues, rtol=1e-8)
        off = cov - np.diag(np.diag(cov))
        scale = np.sqrt(np.outer(result.eigenvalues, result.eigenvalues))
        assert np.max(np.abs(off / scale)) < 1e-8

    def test_variance_decomposition_per_series(self):
        panel = random_panel(4)
        result = pca(panel)
        x = panel.values
        for i in range(panel.width):
            reconstructed = float(
                np.sum(result.loadings[i, :] ** 2 * result.eigenvalues)
            )
            sample_var = float(np.var(x[:, i], ddof=1))
            assert reconstructed == pytest.approx(sample_var, rel=1e-8)

    def test_reorder_invariance_up_to_sign_convention(self):
        panel = random_panel(5)
        result = pca(panel)
        reordered = Panel(tuple(reversed(panel.series)))
        result2 = pca(reordered)
        assert np.allclose(result2.eigenvalues, result.eigenvalues, rtol=1e-10)
        assert np.allclose(
            result2.loadings, result.loadings[::-1, :], atol=1e-8
        )

    def test_rank_deficiency_flagged_and_zero_eigenvalues_kept(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(100)
        b = 2.0 * a  # exactly collinear
        result = pca(panel_of([a, b], ["a", "b"]))
        assert result.rank_deficient
        assert len(result.eigenvalues) == 2
        assert abs(result.eigenvalues[-1]) < 1e-10

    def test_single_series_rejected(self):
        rng = np.random.default_rng(7)
        panel = panel_of([rng.standard_normal(50)], ["only"])
        with pytest.raises(ValidationError):
            pca(panel)

    def test_short_panel_rejected(self):
        rng = np.random.default_rng(8)
        panel = panel_of([rng.standard_normal(3) for _ in range(4)], list("abcd"))
        with pytest.raises(InsufficientDataError):
            pca(panel)


class TestScree:
    def test_three_one_split(self):
        result = PcaResult(
            eigenvalues=np.array([3.0, 1.0]),
            loadings=np.eye(2),
            scores=np.zeros((5, 2)),
            cumulative_share=np.array([0.75, 1.0]),
            labels=["a", "b"],
            rank_deficient=False,
        )
        rows = scree(result)
        assert [r.component for r in rows] == [1, 2]
        assert rows[0].share_pct == pytest.approx(75.0, abs=1e-12)
        assert rows[1].share_pct == pytest.approx(25.0, abs=1e-12)
        assert rows[0].cumulative_pct == pytest.approx(75.0, abs=1e-12)
        assert rows[1].cumulative_pct == 100.0

    def test_cumulative_nondecreasing_and_ends_at_100(self):
        for seed in range(5):
            rows = scree(pca(random_panel(100 + seed)))
            cum = [r.cumulative_pct for r in rows]
            assert all(b >= a - 1e-12 for a, b in zip(cum, cum[1:]))
            assert cum[-1] == 100.0


class TestFactorRegression:
    def test_first_score_fits_itself_perfectly(self):
        panel = random_panel(9)
        result = pca(panel)
        target = ReturnSeries("pc1", panel.grid, result.scores[:, 0])
        reg = factor_regression(target, result.scores, k=1)
        assert reg.adj_r_square == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(reg.residuals.values)) < 1e-8
        assert reg.loadings_on_pc1 == pytest.approx(1.0, abs=1e-10)

    def test_independent_series_r2_near_zero(self):
        rng = np.random.default_rng(10)
        n = 100_000
        cols = [rng.standard_normal(n) for _ in range(3)]
        panel = panel_of(cols, list("abc"))
        result = pca(panel)
        outsider = ReturnSeries("z", panel.grid, rng.standard_normal(n))
        reg = factor_regression(outsider, result.scores, k=3)
        assert abs(reg.adj_r_square) < 0.01

    def test_k_zero_gives_demeaned_series(self):
        panel = random_panel(11)
        result = pca(panel)
        s = panel.series[0]
        reg = factor_regression(s, result.scores, k=0)
        assert reg.loadings_on_pc1 is None
        assert reg.loadings_on_pc2 is None
        assert np.allclose(
            reg.residuals.values, s.values - s.values.mean(), atol=1e-12
        )

    def test_full_rank_projection_kills_residuals(self):
        panel = random_panel(12)
        result = pca(panel)
        for s in panel.series:
            reg = factor_regression(s, result.scores, k=panel.width)
            assert np.max(np.abs(reg.residuals.values)) < 1e-8
            assert reg.adj_r_square == pytest.approx(1.0, abs=1e-10)

    def test_residuals_orthogonal_to_retained_scores(self):
        panel = random_panel(13)
        result = pca(panel)
        for k in (1, 2, 3):
            reg = factor_regression(panel.series[1], result.scores, k)
            for j in range(k):
                dot = float(np.dot(reg.residuals.values, result.scores[:, j]))
                scale = float(np.linalg.norm(result.scores[:, j]))
                assert abs(dot) / max(scale, 1.0) < 1e-8

    def test_residual_sd_identity(self):
        # resid sd = total sd * sqrt(1 - R^2) when both use the same ddof
        panel = random_panel(14)
        result = pca(panel)
        s = panel.series[2]
        reg = factor_regression(s, result.scores, k=2)
        lhs = np.std(reg.residuals.values)
        rhs = np.std(s.values) * np.sqrt(1.0 - reg.r_square)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_collinear_scores_rejected(self):
        rng = np.random.default_rng(15)
        n = 50
        col = rng.standard_normal(n)
        fake_scores = np.column_stack([col, col])
        s = ReturnSeries("s", TimeGrid(Month(2000, 1), n), rng.standard_normal(n))
        with pytest.raises(SingularDesignError, match="^collinear regressors: PC2$"):
            factor_regression(s, fake_scores, k=2)

    def test_constant_series_rejected(self):
        panel = random_panel(16)
        result = pca(panel)
        s = ReturnSeries("c", panel.grid, np.zeros(len(panel)))
        with pytest.raises(DegenerateVarianceError):
            factor_regression(s, result.scores, k=1)

    @pytest.mark.parametrize("level", [1.0, 0.4])
    def test_constant_series_without_exact_mean_rejected(self, level):
        # 160 months of 0.4 do not round-trip through the mean, so their
        # sum of squared deviations is float noise above zero; of 1.0 they do
        panel = random_panel(16, n=160)
        result = pca(panel)
        s = ReturnSeries("c", panel.grid, np.full(len(panel), level))
        with pytest.raises(DegenerateVarianceError, match="series 'c' is constant; R\\^2 undefined"):
            factor_regression(s, result.scores, k=1)

    def test_residual_below_minus_100_is_kept(self):
        # a -95 % month the scores do not explain leaves a residual of
        # -102.5, which bounds returns but not residuals
        rng = np.random.default_rng(7)
        scores = rng.normal(0.0, 5.0, (240, 2))
        y = 12.0 + 0.5 * scores[:, 0] + rng.normal(0.0, 2.0, 240)
        y[100] = -95.0
        s = ReturnSeries("y", TimeGrid(Month(2000, 1), 240), y)
        fit = factor_regression(s, scores, k=1)
        assert type(fit.residuals) is Series
        assert fit.residuals.values[100] == pytest.approx(-102.53, abs=0.01)

    def test_row_mismatch_rejected(self):
        panel = random_panel(17)
        result = pca(panel)
        short = ReturnSeries("s", TimeGrid(Month(2000, 1), 10), np.zeros(10) + 0.5 * np.arange(10))
        with pytest.raises(ValidationError):
            factor_regression(short, result.scores, k=1)


class TestResidualPanel:
    def test_residual_variance_never_exceeds_original(self):
        for seed in range(4):
            panel = random_panel(200 + seed)
            for k in range(panel.width + 1):
                resid, _ = residual_panel(panel, k)
                for orig, res in zip(panel.series, resid.series):
                    assert np.var(res.values) <= np.var(orig.values) + 1e-12

    def test_residuals_mean_zero(self):
        panel = random_panel(18)
        resid, _ = residual_panel(panel, 2)
        for s in resid.series:
            assert abs(s.values.mean()) < 1e-10

    def test_grid_and_labels_preserved(self):
        panel = random_panel(19)
        resid, _ = residual_panel(panel, 1)
        assert resid.grid == panel.grid
        assert resid.labels == panel.labels

    def test_constant_member_fails_only_itself(self):
        panel = random_panel(21, n=160)
        const = ReturnSeries("K", panel.grid, np.full(len(panel), 0.4))
        resid, failed = residual_panel(Panel(panel.series + (const,)), 1)
        assert resid.labels == panel.labels
        assert failed == {"K": "series 'K' is constant; R^2 undefined"}

    def test_factor_structure_is_removed(self):
        # one strong common factor; removing a single component kills the
        # positive comovement. Residuals orthogonal to the first score must
        # roughly sum to zero across the 4 series, which mechanically pushes
        # pairwise correlations toward -1/(width-1), not toward 0.
        spec = GeneratorSpec(
            "factor-panel", n=2000, seed=20,
            parameters={
                "loadings": [[1.0], [0.9], [1.1], [0.8]],
                "factor_sds": [3.0],
                "idio_sds": [1.0, 1.0, 1.0, 1.0],
            },
        )
        panel = generate(spec)
        resid, _ = residual_panel(panel, 1)

        def mean_offdiag(p):
            c = np.corrcoef(p.values.T)
            mask = ~np.eye(c.shape[0], dtype=bool)
            return c[mask].mean()

        assert mean_offdiag(panel) > 0.6
        assert -0.45 < mean_offdiag(resid) < 0.0
