"""Tests for postprocessing and evaluation metrics.

The distance and component routines are cross-checked against independent
brute-force oracles: an explicit BFS flood fill and all-pairs boundary
distances computed without scipy.
"""

import math
from collections import deque

import numpy as np
import pytest

from gliomaforge.errors import PairingError, ShapeError
from gliomaforge.metrics import (
    HD95_SENTINEL,
    REGIONS,
    CaseMetrics,
    _region_masks,
    connected_components,
    dice,
    evaluate,
    evaluate_case,
    hd95,
    keep_largest_per_class,
    read_metrics_csv,
    sensitivity_specificity,
    summarize,
    write_metrics_csv,
)
from gliomaforge.nifti import SegmentationMask, list_mask_ids, save_mask


# -- independent oracles ---------------------------------------------------


def _neighbor_offsets(connectivity):
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                if connectivity == 6 and abs(dx) + abs(dy) + abs(dz) != 1:
                    continue
                offsets.append((dx, dy, dz))
    return offsets


def flood_fill_components(mask, connectivity=26):
    """BFS flood fill labelling components 1..K in scan order."""
    mask = np.asarray(mask) != 0
    out = np.zeros(mask.shape, dtype=np.int32)
    offsets = _neighbor_offsets(connectivity)
    count = 0
    for idx in np.ndindex(mask.shape):
        if not mask[idx] or out[idx]:
            continue
        count += 1
        queue = deque([idx])
        out[idx] = count
        while queue:
            x, y, z = queue.popleft()
            for dx, dy, dz in offsets:
                n = (x + dx, y + dy, z + dz)
                if all(0 <= c < s for c, s in zip(n, mask.shape)):
                    if mask[n] and not out[n]:
                        out[n] = count
                        queue.append(n)
    return out, count


def brute_boundary(mask):
    """Face-neighbor exteriority check written out longhand."""
    mask = np.asarray(mask) != 0
    out = np.zeros(mask.shape, dtype=bool)
    for idx in np.argwhere(mask):
        x, y, z = idx
        for dx, dy, dz in _neighbor_offsets(6):
            n = (x + dx, y + dy, z + dz)
            outside = not all(0 <= c < s for c, s in zip(n, mask.shape))
            if outside or not mask[n]:
                out[x, y, z] = True
                break
    return out


def brute_hd95(p, g, spacing=(1.0, 1.0, 1.0)):
    """All-pairs directed boundary distances, 95th percentile of the union."""
    p, g = np.asarray(p) != 0, np.asarray(g) != 0
    if not p.any() and not g.any():
        return 0.0
    if p.any() != g.any():
        return HD95_SENTINEL
    bp = np.argwhere(brute_boundary(p)) * np.asarray(spacing)
    bg = np.argwhere(brute_boundary(g)) * np.asarray(spacing)
    dists = []
    for a in bp:
        dists.append(min(math.dist(a, b) for b in bg))
    for b in bg:
        dists.append(min(math.dist(b, a) for a in bp))
    return float(np.percentile(dists, 95))


def random_mask(rng, shape=(8, 8, 8), density=0.2):
    return (rng.random(shape) < density).astype(np.uint8)


# -- connected components --------------------------------------------------


class TestConnectedComponents:
    def test_two_blobs_with_gap(self):
        m = np.zeros((8, 8, 8), dtype=np.uint8)
        m[1:3, 1:3, 1:3] = 1
        m[1:3, 5:7, 1:3] = 1
        lab, k = connected_components(m)
        assert k == 2
        assert sorted(np.bincount(lab.ravel())[1:].tolist()) == [8, 8]

    def test_diagonal_touch_is_connected_under_26(self):
        m = np.zeros((4, 4, 4), dtype=np.uint8)
        m[0, 0, 0] = 1
        m[1, 1, 1] = 1
        assert connected_components(m, connectivity=26)[1] == 1
        assert connected_components(m, connectivity=6)[1] == 2

    def test_empty_mask(self):
        lab, k = connected_components(np.zeros((4, 4, 4), dtype=np.uint8))
        assert k == 0
        assert not lab.any()

    def test_labels_follow_scan_order(self):
        m = np.zeros((4, 4, 4), dtype=np.uint8)
        m[3, 3, 3] = 1  # later in scan order
        m[0, 0, 0] = 1
        lab, k = connected_components(m)
        assert k == 2
        assert lab[0, 0, 0] == 1
        assert lab[3, 3, 3] == 2

    def test_rejects_bad_connectivity(self):
        with pytest.raises(ValueError):
            connected_components(np.zeros((2, 2, 2), dtype=np.uint8), connectivity=18)

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_matches_flood_fill_oracle(self, connectivity):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = random_mask(rng, density=float(rng.uniform(0.05, 0.5)))
            lab, k = connected_components(m, connectivity=connectivity)
            oracle_lab, oracle_k = flood_fill_components(m, connectivity=connectivity)
            assert k == oracle_k
            np.testing.assert_array_equal(lab, oracle_lab)


class TestKeepLargestPerClass:
    def test_erases_smaller_blob(self):
        s = np.zeros((8, 8, 8), dtype=np.uint8)
        s[0:2, 0, :5] = 3  # 10 voxels
        s[6, 6, :3] = 3  # 3 voxels
        out = keep_largest_per_class(SegmentationMask(labels=s))
        assert (out.labels == 3).sum() == 10
        assert not out.labels[6, 6, :].any()

    def test_single_component_unchanged(self):
        s = np.zeros((6, 6, 6), dtype=np.uint8)
        s[2:4, 2:4, 2:4] = 2
        out = keep_largest_per_class(SegmentationMask(labels=s))
        np.testing.assert_array_equal(out.labels, s)

    def test_tie_keeps_earlier_scan_order_component(self):
        s = np.zeros((8, 8, 8), dtype=np.uint8)
        s[0, 0, 0:2] = 1  # first seen
        s[5, 5, 0:2] = 1  # same size, later
        out = keep_largest_per_class(SegmentationMask(labels=s))
        assert out.labels[0, 0, 0] == 1
        assert not out.labels[5, 5, :].any()

    def test_classes_filtered_independently(self):
        s = np.zeros((8, 8, 8), dtype=np.uint8)
        s[0, 0, 0:4] = 1
        s[4, 4, 0:2] = 2
        s[4, 0, 0:2] = 2
        s[6, 6, 0] = 3
        out = keep_largest_per_class(SegmentationMask(labels=s))
        assert (out.labels == 1).sum() == 4
        assert (out.labels == 2).sum() == 2  # tie broken, one blob kept
        assert (out.labels == 3).sum() == 1

    def test_idempotent_and_never_grows(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8)
            seg = SegmentationMask(labels=s)
            once = keep_largest_per_class(seg)
            twice = keep_largest_per_class(once)
            np.testing.assert_array_equal(once.labels, twice.labels)
            for cls in (1, 2, 3):
                assert (once.labels == cls).sum() <= (s == cls).sum()


# -- dice ------------------------------------------------------------------


class TestDice:
    def test_identical_masks(self):
        rng = np.random.default_rng(1)
        m = rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8)
        for region in REGIONS:
            assert dice(m, m, region) == 1.0

    def test_subset_arithmetic(self):
        g = np.zeros((6, 6, 6), dtype=np.uint8)
        g[0, :2, :4] = 3  # 8 voxels
        p = np.zeros_like(g)
        p[0, 0, :4] = 3  # 4 voxels, all inside g
        assert dice(p, g, "ET") == pytest.approx(2 * 4 / 12)

    def test_empty_conventions(self):
        empty = np.zeros((4, 4, 4), dtype=np.uint8)
        full = np.zeros_like(empty)
        full[0, 0, 0] = 3
        assert dice(empty, empty, "ET") == 1.0
        assert dice(full, empty, "ET") == 0.0
        assert dice(empty, full, "ET") == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8)
            b = rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8)
            for region in REGIONS:
                d = dice(a, b, region)
                assert d == dice(b, a, region)
                assert 0.0 <= d <= 1.0

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8)
            b = rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8)
            for region, labels in REGIONS.items():
                pa = {tuple(i) for i in np.argwhere(np.isin(a, labels))}
                pb = {tuple(i) for i in np.argwhere(np.isin(b, labels))}
                expect = 1.0 if not pa | pb else 2 * len(pa & pb) / (len(pa) + len(pb))
                assert dice(a, b, region) == pytest.approx(expect, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            dice(np.zeros((4, 4, 4)), np.zeros((5, 5, 5)), "WT")

    def test_unknown_region(self):
        with pytest.raises(KeyError):
            dice(np.zeros((4, 4, 4)), np.zeros((4, 4, 4)), "XY")


@pytest.mark.parametrize("region", sorted(REGIONS))
def test_uint8_region_masks_equal_isin_on_every_value(region):
    labels = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
    want = np.isin(labels, REGIONS[region])
    p, g = _region_masks(labels, labels.astype(np.int64), region)
    assert p.dtype == g.dtype == bool
    assert np.array_equal(p, want) and np.array_equal(g, want)


# -- hd95 ------------------------------------------------------------------


class TestHD95:
    def test_identical_masks(self):
        m = np.zeros((8, 8, 8), dtype=np.uint8)
        m[2:5, 2:5, 2:5] = 1
        assert hd95(m, m, "WT") == 0.0

    def test_two_voxels_three_apart(self):
        a = np.zeros((8, 8, 8), dtype=np.uint8)
        a[2, 2, 2] = 1
        b = np.zeros_like(a)
        b[2, 2, 5] = 1
        assert hd95(a, b, "WT") == pytest.approx(3.0)

    def test_spacing_scales_distances(self):
        a = np.zeros((8, 8, 8), dtype=np.uint8)
        a[2, 2, 2] = 1
        b = np.zeros_like(a)
        b[2, 2, 5] = 1
        assert hd95(a, b, "WT", spacing=(1.0, 1.0, 2.5)) == pytest.approx(7.5)

    def test_empty_conventions(self):
        m = np.zeros((6, 6, 6), dtype=np.uint8)
        full = m.copy()
        full[2, 2, 2] = 1
        assert hd95(m, m, "WT") == 0.0
        assert hd95(full, m, "WT") == HD95_SENTINEL
        assert hd95(m, full, "WT") == HD95_SENTINEL

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_mask(rng)
            b = random_mask(rng)
            assert hd95(a, b, "WT") == hd95(b, a, "WT")

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = random_mask(rng, density=float(rng.uniform(0.05, 0.4)))
            b = random_mask(rng, density=float(rng.uniform(0.05, 0.4)))
            got = hd95(a, b, "WT")
            want = brute_hd95(a, b)
            assert got == pytest.approx(want, abs=1e-9)

    def test_anisotropic_matches_oracle(self):
        rng = np.random.default_rng(7)
        spacing = (1.0, 0.5, 2.0)
        for _ in range(20):
            a = random_mask(rng, density=0.2)
            b = random_mask(rng, density=0.2)
            got = hd95(a, b, "WT", spacing=spacing)
            want = brute_hd95(a, b, spacing=spacing)
            assert got == pytest.approx(want, abs=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            hd95(np.zeros((4, 4, 4)), np.zeros((5, 5, 5)), "WT")


# -- bounding-box crops ----------------------------------------------------
#
# `hd95` and `keep_largest_per_class` work on the masks' bounding box. A
# small pattern embedded anywhere in a larger grid, including flush against
# each grid face, must give the same answer as the pattern on its own.

GRID = (20, 18, 16)
ANISO = (1.0, 0.9375, 3.0)


def _embed(small, offset, shape=GRID):
    big = np.zeros(shape, dtype=small.dtype)
    big[tuple(slice(o, o + n) for o, n in zip(offset, small.shape))] = small
    return big


def _offsets(small_shape, shape=GRID):
    """Centred, then flush against each of the six grid faces."""
    centre = tuple((n - m) // 2 for n, m in zip(shape, small_shape))
    out = [centre]
    for axis in range(3):
        for edge in (0, shape[axis] - small_shape[axis]):
            offset = list(centre)
            offset[axis] = edge
            out.append(tuple(offset))
    return out


def _hd95_pair():
    p = np.zeros((5, 4, 6), dtype=np.uint8)
    g = np.zeros_like(p)
    p[0:3, 0:3, 0:2] = 1
    p[4, 3, 5] = 1
    g[1:5, 1:4, 1:4] = 1
    g[0, 0, 5] = 1
    return p, g


def _components_pattern():
    s = np.zeros((6, 5, 7), dtype=np.uint8)
    s[0, 0, 0:2] = 1  # two-way tie with the blob below; seen first, so it wins
    s[4, 3, 5:7] = 1
    s[2:4, 1:3, 2:4] = 2
    s[5, 4, 0] = 2
    s[1, 4, 3:6] = 3
    s[5, 0, 3] = 3
    return s


class TestBoundingBoxCrop:
    def test_hd95_matches_oracle_at_every_offset(self):
        p, g = _hd95_pair()
        want = brute_hd95(p, g, spacing=ANISO)
        got = {
            offset: hd95(_embed(p, offset), _embed(g, offset), "WT", spacing=ANISO)
            for offset in _offsets(p.shape)
        }
        assert got[_offsets(p.shape)[0]] == pytest.approx(want, abs=1e-9)
        assert len(set(got.values())) == 1, got

    def test_hd95_masks_in_opposite_corners(self):
        # the union box spans the whole grid; the two boxes alone would not
        p, _ = _hd95_pair()
        far = tuple(n - m for n, m in zip(GRID, p.shape))
        a, b = _embed(p, (0, 0, 0)), _embed(p, far)
        got = hd95(a, b, "WT", spacing=ANISO)
        assert got == pytest.approx(brute_hd95(a, b, spacing=ANISO), abs=1e-9)
        assert got == hd95(b, a, "WT", spacing=ANISO)

    def test_keep_largest_commutes_with_offset(self):
        s = _components_pattern()
        small = keep_largest_per_class(SegmentationMask(labels=s)).labels
        expected = s.copy()
        expected[4, 3, 5:7] = 0  # later half of the tie
        expected[5, 4, 0] = 0
        expected[5, 0, 3] = 0
        np.testing.assert_array_equal(small, expected)
        for offset in _offsets(s.shape):
            big = keep_largest_per_class(SegmentationMask(labels=_embed(s, offset))).labels
            np.testing.assert_array_equal(big, _embed(small, offset), err_msg=str(offset))


# -- sensitivity / specificity ---------------------------------------------


class TestSensitivitySpecificity:
    def test_perfect(self):
        m = np.zeros((4, 4, 4), dtype=np.uint8)
        m[1:3, 1:3, 1:3] = 2
        assert sensitivity_specificity(m, m, "WT") == (1.0, 1.0)

    def test_complement(self):
        g = np.zeros((4, 4, 4), dtype=np.uint8)
        g[:2] = 1
        p = np.where(g == 0, 1, 0).astype(np.uint8)
        assert sensitivity_specificity(p, g, "WT") == (0.0, 0.0)

    def test_confusion_counting(self):
        # TP=3, FN=1, FP=2, TN=58 over 64 voxels
        g = np.zeros((4, 4, 4), dtype=np.uint8)
        g.ravel()[:4] = 1
        p = np.zeros_like(g)
        p.ravel()[:3] = 1
        p.ravel()[10:12] = 1
        sens, spec = sensitivity_specificity(p, g, "WT")
        assert sens == pytest.approx(0.75)
        assert spec == pytest.approx(58 / 60, abs=5e-5)

    def test_empty_gt_conventions(self):
        empty = np.zeros((4, 4, 4), dtype=np.uint8)
        pred = empty.copy()
        assert sensitivity_specificity(pred, empty, "WT")[0] == 1.0
        pred[0, 0, 0] = 1
        assert sensitivity_specificity(pred, empty, "WT")[0] == 0.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = random_mask(rng)
            p = random_mask(rng)
            sens, spec = sensitivity_specificity(p, g, "WT")
            tp = int(((p == 1) & (g == 1)).sum())
            fn = int(((p == 0) & (g == 1)).sum())
            fp = int(((p == 1) & (g == 0)).sum())
            tn = int(((p == 0) & (g == 0)).sum())
            if tp + fn:
                assert sens == pytest.approx(tp / (tp + fn), abs=1e-12)
            if tn + fp:
                assert spec == pytest.approx(tn / (tn + fp), abs=1e-12)


# -- cohort evaluation -----------------------------------------------------


def _tumor_mask(seed, shape=(12, 12, 12)):
    rng = np.random.default_rng(seed)
    s = np.zeros(shape, dtype=np.uint8)
    cx, cy, cz = rng.integers(3, 9, size=3)
    s[cx - 2 : cx + 2, cy - 2 : cy + 2, cz - 2 : cz + 2] = 2
    s[cx - 1 : cx + 1, cy - 1 : cy + 1, cz - 1 : cz + 1] = 3
    s[cx, cy, cz] = 1
    return SegmentationMask(labels=s)


class TestEvaluate:
    def test_self_evaluation_is_perfect(self, tmp_path):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir(), gt_dir.mkdir()
        for i in range(3):
            mask = _tumor_mask(i)
            save_mask(pred_dir / f"case{i}.nii", mask)
            save_mask(gt_dir / f"case{i}-seg.nii", mask)
        results, summary = evaluate(pred_dir, gt_dir)
        assert [r.case_id for r in results] == ["case0", "case1", "case2"]
        for r in results:
            for name in REGIONS:
                assert r.regions[name].dice == 1.0
                assert r.regions[name].hd95 == 0.0
        for name in REGIONS:
            assert summary[name]["dice"] == (1.0, 0.0)

    def test_single_case_std_zero(self, tmp_path):
        (tmp_path / "pred").mkdir(), (tmp_path / "gt").mkdir()
        save_mask(tmp_path / "pred" / "a.nii", _tumor_mask(0))
        save_mask(tmp_path / "gt" / "a-seg.nii", _tumor_mask(1))
        _, summary = evaluate(tmp_path / "pred", tmp_path / "gt")
        for name in REGIONS:
            for metric in ("dice", "hd95", "sensitivity", "specificity"):
                assert summary[name][metric][1] == 0.0

    def test_unmatched_prediction_raises(self, tmp_path):
        (tmp_path / "pred").mkdir(), (tmp_path / "gt").mkdir()
        save_mask(tmp_path / "gt" / "a-seg.nii", _tumor_mask(0))
        with pytest.raises(PairingError):
            evaluate(tmp_path / "pred", tmp_path / "gt")

    def test_empty_gt_dir_raises(self, tmp_path):
        (tmp_path / "pred").mkdir(), (tmp_path / "gt").mkdir()
        with pytest.raises(PairingError):
            evaluate(tmp_path / "pred", tmp_path / "gt")

    def test_postprocessing_applied_to_prediction(self):
        gt = _tumor_mask(0)
        noisy = gt.labels.copy()
        noisy[0, 0, 0] = 2  # spurious far-away blob
        raw = evaluate_case(SegmentationMask(labels=noisy), gt, postprocess=False)
        cleaned = evaluate_case(SegmentationMask(labels=noisy), gt, postprocess=True)
        assert cleaned.regions["WT"].dice == 1.0
        assert raw.regions["WT"].dice < 1.0

    def test_discover_handles_both_layouts(self, tmp_path):
        save_mask(tmp_path / "x-seg.nii", _tumor_mask(0))
        save_mask(tmp_path / "y.nii", _tumor_mask(1))
        assert list_mask_ids(tmp_path) == ["x", "y"]

    def test_seg_gz_prediction_matches_bare_nii_reference(self, tmp_path):
        (tmp_path / "pred").mkdir(), (tmp_path / "gt").mkdir()
        save_mask(tmp_path / "pred" / "a-seg.nii.gz", _tumor_mask(0))
        save_mask(tmp_path / "gt" / "a.nii", _tumor_mask(0))
        results, _ = evaluate(tmp_path / "pred", tmp_path / "gt")
        assert [r.case_id for r in results] == ["a"]
        assert all(r.dice == 1.0 for r in results[0].regions.values())

    def test_csv_roundtrip_and_cohort_means(self, tmp_path):
        results = [
            evaluate_case(_tumor_mask(i), _tumor_mask(i + 10), case_id=f"c{i}")
            for i in range(4)
        ]
        summary = summarize(results)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, results, summary)
        assert path.read_text().startswith("#")
        rows = read_metrics_csv(path)
        per_case = [r for r in rows if r["case_id"] not in ("mean", "std")]
        assert len(per_case) == 4 * 3
        # cohort mean rows equal the hand-average of the per-case rows
        for name in REGIONS:
            vals = [r["dice"] for r in per_case if r["region"] == name]
            mean_row = next(
                r for r in rows if r["case_id"] == "mean" and r["region"] == name
            )
            assert mean_row["dice"] == pytest.approx(np.mean(vals), abs=1e-12)
            assert summary[name]["dice"][0] == pytest.approx(np.mean(vals), abs=1e-12)

    def test_case_metrics_structure(self):
        result = evaluate_case(_tumor_mask(0), _tumor_mask(0), case_id="z")
        assert isinstance(result, CaseMetrics)
        assert set(result.regions) == {"WT", "TC", "ET"}
