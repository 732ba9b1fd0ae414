"""First-order feature extraction."""

import numpy as np
import pytest

from gliomaforge.errors import ConfigError, EmptyForegroundError
from gliomaforge.nifti import MODALITIES, MultiModalCase, Volume
from gliomaforge.radiomics import (
    FEATURE_NAMES,
    discretize,
    extract_case_features,
    first_order_features,
    read_features_csv,
    write_features_csv,
)


def vol_from(values, spacing=(1.0, 1.0, 1.0)):
    arr = np.asarray(values, dtype=np.float32).reshape(-1, 1, 1)
    return Volume.from_array(arr, spacing=spacing)


class TestDiscretize:
    def test_fifty_values_two_bins(self):
        # counting oracle: {0..49} with width 25 splits 25/25
        probs = discretize(np.arange(50, dtype=float), bin_width=25)
        np.testing.assert_array_equal(probs, [0.5, 0.5])

    def test_constant_single_bin(self):
        probs = discretize(np.full(9, 3.7), bin_width=25)
        np.testing.assert_array_equal(probs, [1.0])

    def test_anchored_at_floor_of_min(self):
        # -7 and -1 share bin [-25, 0); 3 lands in [0, 25)
        probs = discretize(np.array([-7.0, -1.0, 3.0]), bin_width=25)
        np.testing.assert_allclose(probs, [2 / 3, 1 / 3])

    def test_gap_bins_kept(self):
        probs = discretize(np.array([0.0, 60.0]), bin_width=25)
        np.testing.assert_array_equal(probs, [0.5, 0.0, 0.5])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = discretize(rng.normal(50, 30, size=1000), bin_width=25)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            discretize(np.array([1.0]), bin_width=0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            discretize(np.array([1.0, np.nan]))


class TestFirstOrderFeatures:
    def test_hand_computed_1234(self):
        # oracle: hand-worked moments of {1,2,3,4}
        fv = first_order_features(vol_from([1, 2, 3, 4]), bin_width=1.0)
        assert fv.mean == pytest.approx(2.5)
        assert fv.variance == pytest.approx(1.25)
        assert fv.range == pytest.approx(3.0)
        assert fv.root_mean_squared == pytest.approx(np.sqrt(7.5))
        assert fv.energy == pytest.approx(30.0)
        assert fv.total_energy == pytest.approx(30.0)
        assert fv.minimum == 1.0
        assert fv.maximum == 4.0
        assert fv.median == pytest.approx(2.5)
        assert fv.p10 == pytest.approx(1.3)
        assert fv.p90 == pytest.approx(3.7)
        assert fv.interquartile_range == pytest.approx(1.5)
        assert fv.mean_absolute_deviation == pytest.approx(1.0)
        # subset within [1.3, 3.7] is {2,3}: deviations 0.5 each
        assert fv.robust_mean_absolute_deviation == pytest.approx(0.5)
        assert fv.skewness == pytest.approx(0.0)
        # mu4/sigma^4 = 2.5625/1.5625, uncorrected
        assert fv.kurtosis == pytest.approx(1.64)
        # four singleton bins at width 1
        assert fv.entropy == pytest.approx(2.0)
        assert fv.uniformity == pytest.approx(0.25)

    def test_constant_volume_closed_forms(self):
        grid = np.zeros((4, 4, 4), dtype=np.float32)
        grid[1:3, 1:3, 1:3] = 7.0
        fv = first_order_features(Volume.from_array(grid))
        n = 8
        assert fv.mean == 7.0
        assert fv.variance == 0.0
        assert fv.skewness == 0.0
        assert fv.kurtosis == 0.0
        assert fv.entropy == 0.0
        assert fv.uniformity == 1.0
        assert fv.energy == pytest.approx(49.0 * n)
        assert fv.root_mean_squared == pytest.approx(7.0)
        assert fv.mean_absolute_deviation == 0.0
        assert fv.interquartile_range == 0.0
        assert fv.range == 0.0

    def test_total_energy_uses_voxel_volume(self):
        fv = first_order_features(vol_from([1, 2, 3, 4], spacing=(2.0, 2.0, 2.0)))
        assert fv.total_energy == pytest.approx(30.0 * 8.0)

    def test_mask_overrides_nonzero_default(self):
        arr = np.array([0.0, 5.0, 9.0]).reshape(3, 1, 1)
        mask = np.array([True, True, False]).reshape(3, 1, 1)
        fv = first_order_features(Volume.from_array(arr), mask=mask)
        assert fv.mean == pytest.approx(2.5)
        assert fv.minimum == 0.0

    def test_empty_mask(self):
        with pytest.raises(EmptyForegroundError):
            first_order_features(Volume.from_array(np.zeros((3, 3, 3))))

    def test_ordering_invariant(self):
        rng = np.random.default_rng(1)
        fv = first_order_features(vol_from(rng.lognormal(2, 1, size=500) + 1))
        assert fv.minimum <= fv.p10 <= fv.median <= fv.p90 <= fv.maximum
        assert fv.variance >= 0
        assert 0 < fv.uniformity <= 1
        assert fv.entropy >= 0
        assert all(np.isfinite(v) for v in fv.values())

    def test_shift_invariance(self):
        # dyadic rationals so base and base+k are exact in float32
        rng = np.random.default_rng(2)
        base = rng.integers(4, 1600, size=400) / 4.0
        k = 13.5
        a = first_order_features(vol_from(base))
        b = first_order_features(vol_from(base + k))
        for name in ("mean", "median", "minimum", "maximum", "p10", "p90"):
            assert getattr(b, name) == pytest.approx(getattr(a, name) + k, abs=1e-9)
        for name in (
            "variance",
            "skewness",
            "kurtosis",
            "mean_absolute_deviation",
            "interquartile_range",
            "range",
        ):
            assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        base = rng.integers(4, 1600, size=400) / 4.0
        s = 2.5
        a = first_order_features(vol_from(base))
        b = first_order_features(vol_from(base * s))
        assert b.variance == pytest.approx(a.variance * s * s, rel=1e-9)
        assert b.skewness == pytest.approx(a.skewness, rel=1e-9)
        assert b.kurtosis == pytest.approx(a.kurtosis, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        base = rng.lognormal(2, 0.5, size=343).astype(np.float32)
        shuffled = rng.permutation(base)
        a = first_order_features(vol_from(base))
        b = first_order_features(vol_from(shuffled))
        # equal up to summation order in the accumulators
        np.testing.assert_allclose(a.values(), b.values(), rtol=1e-12)


    @pytest.mark.parametrize("seed", range(4))
    def test_moments_equal_power_formula(self, seed):
        # products replace np.power for the third and fourth moments
        rng = np.random.default_rng(seed)
        x = rng.gamma(2.0, 300.0, size=20_000).astype(np.float32)
        fv = first_order_features(vol_from(x))
        c = x.astype(np.float64) - x.astype(np.float64).mean()
        sigma = np.sqrt(np.mean(c**2))
        assert fv.skewness == pytest.approx(np.mean(c**3) / sigma**3, rel=1e-12, abs=0)
        assert fv.kurtosis == pytest.approx(np.mean(c**4) / sigma**4, rel=1e-12, abs=0)


class TestCaseFeatures:
    def make_case(self):
        rng = np.random.default_rng(5)
        mods = {}
        for i, m in enumerate(MODALITIES):
            grid = np.zeros((8, 8, 8), dtype=np.float32)
            grid[2:6, 2:6, 2:6] = rng.uniform(10 * (i + 1), 20 * (i + 1), size=(4, 4, 4))
            mods[m] = Volume.from_array(grid)
        return MultiModalCase(case_id="case-001", modalities=mods)

    def test_default_modality_is_flair(self):
        case = self.make_case()
        fv = extract_case_features(case)
        direct = first_order_features(case.modalities["flair"], case_id="case-001")
        assert fv == direct
        assert fv.case_id == "case-001"

    def test_modality_switch(self):
        case = self.make_case()
        fv = extract_case_features(case, modality="t2")
        assert fv == first_order_features(case.modalities["t2"], case_id="case-001")

    def test_unknown_modality(self):
        with pytest.raises(ConfigError):
            extract_case_features(self.make_case(), modality="t2w")


class TestFeatureCSV:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = []
        for i in range(3):
            vol = vol_from(rng.lognormal(2, 0.4, size=120) + 1)
            rows.append(first_order_features(vol, case_id=f"case-{i:03d}"))
        path = tmp_path / "features.csv"
        write_features_csv(path, rows)
        ids, matrix = read_features_csv(path)
        assert ids == ["case-000", "case-001", "case-002"]
        assert matrix.shape == (3, 18)
        expected = np.array([r.values() for r in rows], dtype=np.float64)
        np.testing.assert_array_equal(matrix, expected)

    def test_header_order(self, tmp_path):
        path = tmp_path / "features.csv"
        write_features_csv(path, [])
        header = path.read_text().splitlines()[0]
        assert header == "case_id," + ",".join(FEATURE_NAMES)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("case_id,mean\nx,1.0\n")
        with pytest.raises(ConfigError):
            read_features_csv(path)
