"""Histogram matching and z-score normalization."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from gliomaforge.errors import ConfigError, DegenerateInputError, EmptyForegroundError
from gliomaforge.harmonize import (
    EmpiricalCDF,
    HarmonizationMapping,
    build_cdf,
    ks_statistic,
    match_histogram,
    zscore_normalize,
)
from gliomaforge.nifti import Volume


def ball_volume(shape=(32, 32, 32), radius=13, seed=0, shift=0.0, scale=1.0):
    """Lognormal foreground inside a centered ball, zero background."""
    rng = np.random.default_rng(seed)
    grid = np.zeros(shape, dtype=np.float32)
    zz, yy, xx = np.mgrid[: shape[0], : shape[1], : shape[2]]
    c = [s // 2 for s in shape]
    ball = (zz - c[0]) ** 2 + (yy - c[1]) ** 2 + (xx - c[2]) ** 2 < radius**2
    vals = rng.lognormal(mean=1.0, sigma=0.5, size=int(ball.sum()))
    grid[ball] = (vals * scale + shift).astype(np.float32)
    return Volume.from_array(grid)


class TestEmpiricalCDF:
    def test_sorted_values(self):
        cdf = build_cdf(np.array([3.0, 1.0, 2.0]), mask=np.ones(3, dtype=bool))
        assert np.array_equal(cdf.values, [1.0, 2.0, 3.0])

    def test_excludes_zeros_by_default(self):
        data = np.array([0.0, 0.0, 5.0, 7.0])
        cdf = build_cdf(data)
        assert np.array_equal(cdf.values, [5.0, 7.0])

    def test_empty_mask(self):
        with pytest.raises(EmptyForegroundError):
            build_cdf(np.zeros(10))

    def test_median_level(self):
        # sort-and-count oracle: level at the sample median is 0.5 +- 1/n
        rng = np.random.default_rng(1)
        sample = rng.normal(size=10_000)
        cdf = EmpiricalCDF.from_samples(sample)
        level = cdf.evaluate(np.median(sample))
        assert abs(level - 0.5) <= 1.0 / sample.size

    def test_midrank_ties(self):
        cdf = EmpiricalCDF.from_samples(np.array([1.0, 1.0, 1.0, 1.0]))
        assert cdf.evaluate(1.0) == 0.5

    def test_quantile_clamps(self):
        cdf = EmpiricalCDF.from_samples(np.array([1.0, 2.0, 3.0]))
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 3.0


class TestMatchHistogram:
    def test_self_match_is_identity(self):
        src = ball_volume(seed=2)
        out = match_histogram(src, build_cdf(src.data), quantiles=256)
        fg = src.data != 0
        rel = np.abs(out.data[fg] - src.data[fg]) / np.maximum(np.abs(src.data[fg]), 1e-12)
        assert rel.max() <= 1e-6

    def test_rank_matching_four_values(self):
        src = Volume.from_array(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1))
        ref_cdf = EmpiricalCDF.from_samples(np.array([10.0, 20.0, 30.0, 40.0]))
        out = match_histogram(src, ref_cdf, quantiles=256)
        assert np.array_equal(out.data.ravel(), [10.0, 20.0, 30.0, 40.0])

    def test_constant_foreground_maps_to_reference_median(self):
        # F_s(c) = 0.5 under the midpoint convention -> reference quantile(0.5) = 25
        grid = np.zeros((4, 4, 4), dtype=np.float32)
        grid[1:3, 1:3, 1:3] = 7.0
        ref_cdf = EmpiricalCDF.from_samples(np.array([10.0, 20.0, 30.0, 40.0]))
        out = match_histogram(Volume.from_array(grid), ref_cdf, quantiles=256)
        assert np.all(out.data[grid != 0] == 25.0)
        assert np.all(out.data[grid == 0] == 0.0)

    def test_background_untouched(self):
        src = ball_volume(seed=3, shift=2.0)
        ref = ball_volume(seed=4)
        out = match_histogram(src, build_cdf(ref.data), quantiles=256)
        assert np.all(out.data[src.data == 0] == 0.0)

    def test_monotone(self):
        src = ball_volume(seed=5, shift=1.0, scale=2.5)
        ref = ball_volume(seed=6)
        mapping = HarmonizationMapping.fit(src.data[src.data != 0], build_cdf(ref.data))
        rng = np.random.default_rng(7)
        x = rng.uniform(-2.0, 40.0, size=(10_000, 2))
        lo, hi = x.min(axis=1), x.max(axis=1)
        assert np.all(mapping.apply(lo) <= mapping.apply(hi))

    def test_distribution_transfer_ks(self):
        src = ball_volume(shape=(48, 48, 48), radius=20, seed=8, shift=5.0, scale=3.0)
        ref = ball_volume(shape=(48, 48, 48), radius=20, seed=9)
        out = match_histogram(src, build_cdf(ref.data), quantiles=256)
        stat = ks_statistic(out.data[out.data != 0], ref.data[ref.data != 0])
        assert stat <= 0.02

    def test_idempotence(self):
        src = ball_volume(seed=10, shift=3.0, scale=2.0)
        ref_cdf = build_cdf(ball_volume(seed=11).data)
        once = match_histogram(src, ref_cdf, quantiles=256)
        twice = match_histogram(once, ref_cdf, quantiles=256)
        assert np.allclose(twice.data, once.data, atol=1e-6)

    @pytest.mark.parametrize("quantiles", [2, 16, 256])
    def test_equals_float64_grid_formula(self, quantiles):
        src = ball_volume(seed=13, shift=1.0, scale=4.0)
        src.data[0, 0, :4] = -0.0  # background of either sign stays as it is
        src.data[0, 1, 0] = -3.5  # a negative foreground voxel
        ref_cdf = build_cdf(ball_volume(seed=14).data)
        fg = src.data != 0
        mapping = HarmonizationMapping.fit(src.data[fg], ref_cdf, quantiles=quantiles)
        want = src.data.astype(np.float64)
        want[fg] = mapping.apply(want[fg])
        want = want.astype(np.float32)
        out = match_histogram(src, ref_cdf, quantiles=quantiles)
        assert out.data.dtype == np.float32
        assert np.array_equal(out.data.view(np.uint32), want.view(np.uint32))
        assert np.signbit(out.data[0, 0, :4]).all()

    def test_holds_one_result_beside_its_foreground(self):
        # warm (first-call imports allocate too), then the traced call holds
        # at most the output, the mask and the float32 foreground it maps
        # in place, plus the interpolation table and a chunk of scratch
        import tracemalloc

        src = ball_volume(shape=(96, 96, 96), radius=40, seed=15, shift=2.0)
        ref_cdf = build_cdf(ball_volume(shape=(48, 48, 48), radius=20, seed=16).data)
        want = match_histogram(src, ref_cdf)
        foreground = int(np.count_nonzero(src.data))
        tracemalloc.start()
        try:
            out = match_histogram(src, ref_cdf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.tobytes() == want.data.tobytes()
        bound = out.data.nbytes + src.data.size + 4 * foreground
        assert peak < 1.1 * bound, (peak, bound)

    def test_quantile_count_validated(self):
        src = ball_volume(seed=12)
        with pytest.raises(ConfigError):
            match_histogram(src, build_cdf(src.data), quantiles=1)

    def test_empty_foreground(self):
        ref_cdf = EmpiricalCDF.from_samples(np.array([1.0]))
        with pytest.raises(EmptyForegroundError):
            match_histogram(Volume.from_array(np.zeros((3, 3, 3))), ref_cdf)


class TestZScore:
    def test_closed_form_three_values(self):
        grid = np.zeros((3, 1, 1), dtype=np.float32)
        grid[:, 0, 0] = [1.0, 2.0, 3.0]
        out = zscore_normalize(Volume.from_array(grid), mask=grid != 0)
        expected = np.array([-1.2247448, 0.0, 1.2247448])
        np.testing.assert_allclose(out.data[:, 0, 0], expected, atol=1e-6)

    def test_mean_zero_std_one(self):
        vol = ball_volume(seed=13, shift=4.0, scale=2.0)
        out = zscore_normalize(vol)
        fg = vol.data != 0
        assert abs(out.data[fg].mean()) <= 1e-6
        assert abs(out.data[fg].std() - 1.0) <= 1e-6
        assert np.all(out.data[~fg] == 0.0)

    def test_idempotent(self):
        vol = ball_volume(seed=14)
        once = zscore_normalize(vol)
        mask = vol.data != 0
        twice = zscore_normalize(once, mask=mask)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-6)

    def test_constant_rejected(self):
        grid = np.zeros((3, 3, 3), dtype=np.float32)
        grid[1, 1, 1] = 5.0
        grid[1, 1, 2] = 5.0
        with pytest.raises(DegenerateInputError):
            zscore_normalize(Volume.from_array(grid))

    def test_empty_mask(self):
        with pytest.raises(EmptyForegroundError):
            zscore_normalize(Volume.from_array(np.zeros((3, 3, 3))))


def old_zscore(volume, mask=None):
    """zscore_normalize as it was: full-volume float64 copies."""
    data = volume.data.astype(np.float64)
    if mask is None:
        mask = data != 0
    mask = np.asarray(mask, dtype=bool)
    selected = data[mask]
    out = np.zeros_like(data)
    out[mask] = (selected - selected.mean()) / selected.std()
    return out.astype(np.float32)


class TestZScoreBytes:
    """zscore_normalize keeps its float64 statistics but takes them over the
    foreground values alone; its output bytes are the old ones."""

    @pytest.fixture(params=["float32", "int16"])
    def volume(self, request):
        rng = np.random.default_rng(40)
        if request.param == "float32":
            grid = ball_volume(shape=(20, 24, 18), radius=9, seed=41, shift=3.0, scale=7.3).data
        else:  # an int16 file decodes to integer-valued float32
            grid = rng.integers(-300, 3000, size=(20, 24, 18)).astype(np.int16)
            grid[rng.random(grid.shape) < 0.4] = 0
        return Volume.from_array(grid)

    @pytest.mark.parametrize("masked", [False, True], ids=["nonzero", "mask"])
    def test_equals_old_formula(self, volume, masked):
        mask = None
        if masked:
            mask = np.random.default_rng(42).random(volume.dims) < 0.5
        got = zscore_normalize(volume, mask=mask).data
        assert got.dtype == np.float32
        assert got.tobytes() == old_zscore(volume, mask=mask).tobytes()

    def test_out_is_written_in_place(self, volume):
        big = np.full((2, 25, 30, 20), 9.0, dtype=np.float32)
        view = big[1, 2:22, 3:27, 1:19]
        result = zscore_normalize(volume, out=view)
        assert np.shares_memory(result.data, big)
        assert view.tobytes() == old_zscore(volume).tobytes()
        untouched = np.ones(big.shape, dtype=bool)
        untouched[1, 2:22, 3:27, 1:19] = False
        assert np.all(big[untouched] == 9.0)


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(15)
    for _ in range(5):
        a = rng.normal(size=500)
        b = rng.normal(loc=0.3, size=700)
        assert ks_statistic(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)


def bits(a):
    """float64 values as int64 bit patterns: equal bits, equal values, NaNs and signed zeros
    included."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def interp_draw(rng):
    """A random mapping and values to map: knots over a random scale and offset, some a ulp
    apart, outputs with ties, and values on, between and past the knots."""
    magnitude = 10.0 ** rng.uniform(-3, 6)
    xp = rng.normal(size=int(rng.integers(2, 300))) * magnitude + rng.normal() * magnitude
    pairs = rng.choice(xp, size=min(xp.size, int(rng.integers(0, 4))), replace=False)
    xp = np.unique(np.concatenate([xp, np.nextafter(pairs, np.inf)]))
    fp = np.sort(np.round(rng.normal(size=xp.size) * 10.0 ** rng.uniform(-2, 4), 1))
    lo, hi = xp[0], xp[-1]
    span = hi - lo
    x = np.concatenate([
        rng.uniform(lo - span / 8, hi + span / 8, size=int(rng.integers(1, 5000))),
        xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
        [lo - span, hi + span, 0.0, -0.0],
    ])
    return xp, fp, rng.permutation(x)


class TestTableInterpolation:
    """`HarmonizationMapping.apply` equals np.interp bit for bit."""

    def test_random_mappings_equal_np_interp(self):
        rng = np.random.default_rng(2024)
        for draw in range(250):
            xp, fp, x = interp_draw(rng)
            if xp.size < 2:
                continue
            got = HarmonizationMapping(source_knots=xp, reference_knots=fp).apply(x)
            assert np.array_equal(bits(got), bits(np.interp(x, xp, fp))), f"draw {draw}"

    @pytest.mark.parametrize(
        "xp, fp",
        [
            ([1.0, 3.0], [-2.0, 5.0]),
            ([1.0, np.nextafter(1.0, 2.0), 2.0], [0.0, 7.0, 9.0]),
            ([-5.0, -1.0, 0.0, 2.0], [-3.0, -3.0, 0.5, 8.0]),
            ([-0.0, 1e-300, 4.0], [1.0, 2.0, 3.0]),
            (np.geomspace(1e-3, 1e6, 50), np.geomspace(1.0, 1e4, 50)),
        ],
        ids=["two-knots", "ulp-apart", "negative", "signed-zero", "1e-3-to-1e6"],
    )
    def test_explicit_cases(self, xp, fp):
        xp, fp = np.asarray(xp, dtype=np.float64), np.asarray(fp, dtype=np.float64)
        span = xp[-1] - xp[0]
        x = np.concatenate([
            xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
            [xp[-1], xp[0] - span, xp[-1] + span, -np.inf, np.inf, np.nan, 0.0, -0.0, -1.0],
            np.linspace(xp[0] - span / 4, xp[-1] + span / 4, 10_001),
            np.geomspace(1e-3, 1e6, 10_001),
        ])
        got = HarmonizationMapping(source_knots=xp, reference_knots=fp).apply(x)
        assert np.array_equal(bits(got), bits(np.interp(x, xp, fp)))

    def test_float32_input_and_shape(self):
        rng = np.random.default_rng(3)
        x = rng.lognormal(1.0, 0.5, size=(7, 9, 40_000 // 63)).astype(np.float32)
        mapping = HarmonizationMapping.fit(x, build_cdf(rng.lognormal(2.0, 0.3, size=5000)))
        got = mapping.apply(x)
        want = np.interp(x.astype(np.float64), mapping.source_knots, mapping.reference_knots)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_rounds_each_value_once(self, dtype):
        # out= holds the float64 values rounded to its dtype, and may be x
        rng = np.random.default_rng(5)
        x = rng.lognormal(1.0, 0.5, size=50_003).astype(dtype)
        x[:3] = [np.inf, np.nan, -1.0]
        mapping = HarmonizationMapping.fit(x[3:], build_cdf(rng.lognormal(2.0, 0.3, size=5000)))
        want = mapping.apply(x).astype(np.float32)
        out = np.empty(x.shape, dtype=np.float32)
        assert mapping.apply(x, out=out) is out
        assert np.array_equal(bits(out), bits(want))
        if dtype == np.float32:
            assert mapping.apply(x, out=x) is x
            assert np.array_equal(bits(x), bits(want))

    def test_out_of_another_shape_is_refused(self):
        mapping = HarmonizationMapping(source_knots=np.array([0.0, 1.0]),
                                       reference_knots=np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            mapping.apply(np.ones(4), out=np.empty(5))
        with pytest.raises(ValueError):
            mapping.apply(np.ones((2, 2)), out=np.empty((2, 2)).T)

    def test_allocates_only_its_output_and_chunk_temporaries(self):
        import tracemalloc

        from gliomaforge import harmonize

        rng = np.random.default_rng(4)
        values = rng.lognormal(5.0, 0.5, size=2_700_000).astype(np.float32)
        reference = build_cdf(rng.lognormal(4.0, 0.4, 50_000))
        mapping = HarmonizationMapping.fit(values[:50_000], reference)
        # five scratch arrays of one chunk, the bin table and the knots' arrays
        chunks = 5 * 8 * harmonize._INTERP_CHUNK
        temporaries = chunks + 8 * (harmonize._INTERP_BINS + 1) + (256 << 10)
        tracemalloc.start()
        try:
            out = mapping.apply(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + temporaries, (peak, out.nbytes)


class TestQuantileBrackets:
    """`EmpiricalCDF.quantile` equals np.interp over every plotting position."""

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 10**6])
    def test_equals_positions_formula(self, n):
        rng = np.random.default_rng(n)
        values = np.sort(np.round(rng.normal(size=n), 2))  # rounding makes ties
        cdf = EmpiricalCDF(values=values)
        positions = (np.arange(n) + 0.5) / n
        on = positions[:: max(1, n // 2000)]
        levels = np.concatenate([
            rng.uniform(-0.25, 1.25, size=4000), on, np.nextafter(on, -np.inf),
            np.nextafter(on, np.inf), [0.0, 1.0, 0.5 / n, 1 - 0.5 / n, -np.inf, np.inf, np.nan],
        ])
        want = np.interp(levels, positions, values)
        assert np.array_equal(bits(cdf.quantile(levels)), bits(want))
        assert np.array_equal(bits(cdf.quantile(0.37)), bits(np.interp(0.37, positions, values)))

    def test_builds_no_array_of_n_elements(self):
        import tracemalloc

        cdf = EmpiricalCDF.from_samples(np.random.default_rng(5).normal(size=10**6))
        levels = np.linspace(0.0, 1.0, 256)
        tracemalloc.start()
        try:
            cdf.quantile(levels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cdf.values.nbytes // 16, peak


class TestFloat32Samples:
    """float32 samples are sorted and searched as float32; every value,
    level, quantile and knot keeps the bits of the float64 path."""

    @pytest.fixture
    def samples(self):
        rng = np.random.default_rng(5)
        # negatives, a spread of magnitudes, and many ties
        values = (np.round(rng.normal(size=20_001) * 50, 1) * rng.choice([1, 1e-3, 1e4], 20_001))
        values = values.astype(np.float32)
        values[::7] = values[0]
        # -0.0 and +0.0 compare equal, so no sort keeps their order
        values[values == 0] = 0.0
        return values

    def bits(self, a):
        return np.asarray(a, dtype=np.float64).view(np.int64)

    def test_values_widen_to_the_float64_sort(self, samples):
        cdf32 = EmpiricalCDF.from_samples(samples)
        cdf64 = EmpiricalCDF.from_samples(samples.astype(np.float64))
        assert cdf32.values.dtype == np.float32 and cdf64.values.dtype == np.float64
        assert np.array_equal(cdf32.values.astype(np.float64), cdf64.values)

    def test_quantile_and_evaluate(self, samples):
        cdf32 = EmpiricalCDF.from_samples(samples)
        cdf64 = EmpiricalCDF.from_samples(samples.astype(np.float64))
        rng = np.random.default_rng(6)
        n = samples.size
        levels = np.concatenate([rng.uniform(-0.1, 1.1, 5000), (np.arange(0, n, 13) + 0.5) / n,
                                 [0.0, 1.0]])
        assert np.array_equal(self.bits(cdf32.quantile(levels)), self.bits(cdf64.quantile(levels)))
        wide = samples.astype(np.float64)
        exact = np.concatenate([wide, [np.inf, -np.inf, np.nan, 0.0]])
        # float64 keys between float32 values: one ulp of float64 away, and
        # past float32's range
        between = np.concatenate([np.nextafter(wide, np.inf), np.nextafter(wide, -np.inf),
                                  rng.normal(size=1000) * 50, [1e39, -1e39]])
        for keys in (exact, between, np.concatenate([exact, between[:10]]), 3.5, -7.25e-3):
            assert np.array_equal(self.bits(cdf32.evaluate(keys)), self.bits(cdf64.evaluate(keys)))

    @pytest.mark.parametrize("quantiles", [2, 256, 5000])
    def test_fit_and_apply(self, samples, quantiles):
        rng = np.random.default_rng(7)
        reference = rng.lognormal(3.0, 1.0, size=30_000).astype(np.float32)
        fits = [
            HarmonizationMapping.fit(samples.astype(dtype), build_cdf(reference.astype(dtype)),
                                     quantiles=quantiles)
            for dtype in (np.float32, np.float64)
        ]
        for got, want in zip(
            (fits[0].source_knots, fits[0].reference_knots, fits[0].apply(samples)),
            (fits[1].source_knots, fits[1].reference_knots, fits[1].apply(samples)),
        ):
            assert got.dtype == np.float64
            assert np.array_equal(self.bits(got), self.bits(want))

    def test_build_cdf_keeps_float32_and_match_histogram_its_bits(self):
        ref, src = ball_volume(seed=1, scale=3.0), ball_volume(seed=2, shift=-1.5)
        cdf32, cdf64 = build_cdf(ref.data), build_cdf(ref.data.astype(np.float64))
        assert cdf32.values.dtype == np.float32
        assert np.array_equal(cdf32.values.astype(np.float64), cdf64.values)
        assert build_cdf(np.array([0, 3, 1, 0, 2])).values.dtype == np.float64
        got, want = match_histogram(src, cdf32), match_histogram(src, cdf64)
        assert got.data.tobytes() == want.data.tobytes()
