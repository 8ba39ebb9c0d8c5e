"""The special functions and the rank check against `scipy.special` and
`scipy.linalg` themselves."""

import numpy as np
import pytest
import scipy
import scipy.special as sc
from scipy.linalg import qr

from retlab import regression, special
from retlab.errors import SingularDesignError
from retlab.regression import check_full_rank


def scipy_version():
    return tuple(int(part) for part in scipy.__version__.split(".")[:2])


@pytest.fixture(params=["extension", "fallback"])
def path(request, monkeypatch):
    """Run a test on the extension kernels and on the scipy.special
    fallback; the extension leg skips where they are not active."""
    if request.param == "extension" and not special.EXTENSIONS:
        pytest.skip("this scipy lacks an extension kernel retlab loads")
    if request.param == "fallback":
        monkeypatch.setattr(special, "EXTENSIONS", False)
    return request.param


def assert_bits(ours, theirs):
    """Equal arrays, bit for bit, NaN at the same places."""
    ours, theirs = np.asarray(ours, np.float64), np.asarray(theirs, np.float64)
    assert ours.shape == theirs.shape
    nan = np.isnan(theirs)
    np.testing.assert_array_equal(np.isnan(ours), nan)
    np.testing.assert_array_equal(ours[~nan].view(np.int64), theirs[~nan].view(np.int64))


def test_ndtri_is_bit_equal_to_scipy():
    rng = np.random.default_rng(0)
    exp_m2 = np.exp(-2.0)
    edges = [exp_m2, 1.0 - exp_m2, np.exp(-32.0)]
    points = np.concatenate([
        np.linspace(0.0, 1.0, 20_001),
        rng.uniform(0.0, 1.0, 20_000),
        10.0 ** rng.uniform(-300.0, 0.0, 5_000),  # lower tail
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 5_000),  # upper tail
        [np.nextafter(e, side) for e in edges for side in (0.0, 1.0)],
        edges,
        [5e-324, 1e-300, 1.0 - 1e-16, np.nextafter(1.0, 0.0)],
        [-0.5, -1e-300, np.nextafter(1.0, 2.0), 2.0, np.nan, -np.inf, np.inf],
    ])
    ours = [special.ndtri(p) for p in points]
    assert all(type(value) is np.float64 for value in ours)
    assert_bits(ours, sc.ndtri(points))


def test_ndtr_is_bit_equal_to_scipy(path):
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(0.0, 5.0, (500, 3)).ravel(), [-40.0, 0.0, 40.0, np.nan]])
    assert_bits(special.ndtr(x), sc.ndtr(x))
    assert_bits(special.ndtr(x.reshape(-1, 1)), sc.ndtr(x.reshape(-1, 1)))


def test_chdtrc_is_bit_equal_to_scipy(path):
    rng = np.random.default_rng(2)
    df = rng.integers(1, 60, 20_000).astype(float)
    x = np.concatenate([rng.exponential(20.0, 19_998), [0.0, 1e4]])
    assert_bits(special.chdtrc(df, x), sc.chdtrc(df, x))
    # as the ARCH-LM test calls it: an integer df and a float statistic
    assert_bits(special.chdtrc(12, 7.25), sc.chdtrc(12, 7.25))


def test_fdtrc_is_bit_equal_to_scipy(path):
    rng = np.random.default_rng(3)
    for dfn, dfd in [(1, 5), (2, 100), (6, 417), (30, 561)]:
        f = np.concatenate([rng.exponential(3.0, 2_000), [0.0, 1e6, np.inf, np.nan]])
        assert_bits(special.fdtrc(dfn, dfd, f), sc.fdtrc(dfn, dfd, f))
    assert special.fdtrc(2, 50, np.empty(0)).shape == (0,)


def rank_deficient_design(rng, rows, cols):
    """A seeded design with an intercept, some columns copied, scaled or
    combined from others and some zero, at one of a few scales."""
    design = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-6, 7)
    design[:, 0] = 1.0
    for j in rng.choice(np.arange(1, cols), size=rng.integers(0, cols // 2 + 1), replace=False):
        kind = rng.integers(3)
        others = rng.choice(np.delete(np.arange(cols), j), size=2, replace=False)
        if kind == 0:
            design[:, j] = 0.0
        elif kind == 1:
            design[:, j] = rng.normal() * design[:, others[0]]
        else:
            design[:, j] = design[:, others] @ rng.normal(size=2)
    return design


def reference_check_full_rank(design, names):
    # the rank check as it stood on scipy.linalg.qr
    r, pivots = qr(design, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(design.shape) * np.finfo(np.float64).eps
    rank = int(np.sum(diag > tol))
    if rank < design.shape[1]:
        offending = ", ".join(names[i] for i in sorted(pivots[rank:]))
        raise SingularDesignError(f"collinear regressors: {offending}")


def outcome(check, design, names):
    try:
        check(design, names)
    except SingularDesignError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("seed", range(40))
def test_rank_check_names_the_offenders_scipy_qr_names(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(8, 200))
    design = rank_deficient_design(rng, rows, int(rng.integers(2, min(rows, 40))))
    names = [f"c{j}" for j in range(design.shape[1])]
    expected = outcome(reference_check_full_rank, design, names)
    assert outcome(check_full_rank, design, names) == expected
    diag, pivots = regression._pivoted_r_diagonal(design)
    r, scipy_pivots = qr(design, mode="r", pivoting=True)
    assert_bits(diag, np.diag(r))
    np.testing.assert_array_equal(pivots, scipy_pivots)


def test_rank_check_rejects_non_finite_designs():
    design = np.ones((5, 2))
    design[2, 1] = np.nan
    with pytest.raises(ValueError):
        check_full_rank(design, ["a", "b"])


def test_extension_path_is_active_on_scipy_1_17_and_later():
    # on a new scipy that moves one of these kernels, they fall back to
    # scipy.special, whose package init every command would then run
    if scipy_version() < (1, 17):
        pytest.skip(f"scipy {scipy.__version__} predates the loaded kernels")
    assert special.EXTENSIONS
