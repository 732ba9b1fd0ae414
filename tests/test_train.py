"""Tests for losses, AdamW, the cosine schedule, augmentation and fit."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from gliomaforge import model as model_module
from gliomaforge.autodiff import Parameter, Tensor, no_grad, softmax
from gliomaforge.autodiff.gradcheck import gradcheck
from gliomaforge.config import train_config_from
from gliomaforge.errors import ConfigError, LabelError, TrainingDivergedError
from gliomaforge.model import GliomaForgeNet, ModelConfig
from gliomaforge.synthetic import make_dataset
from gliomaforge import train
from gliomaforge.train import (
    AdamW,
    AugmentParams,
    TrainConfig,
    TrainingCase,
    _onehot_nchw,
    apply_augmentation,
    composite_loss,
    cosine_lr,
    cross_entropy,
    dice_loss,
    fit,
    mean_foreground_dice,
    one_hot,
    predict_labels,
    random_crop,
    sample_augmentation,
    training_case,
    validation_dice,
    write_fit_log,
)

SMALL = dict(
    stage_channels=[8, 16, 32, 64],
    stage_heads=[1, 2, 4, 8],
    stage_depths=[1, 1, 1, 1],
    decoder_channels=8,
    ffn_expansion=2,
)


def onehot_probs(labels):
    """Hard one-hot class probabilities, channels-first."""
    return Tensor(_onehot_nchw(labels).astype(np.float64))


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-4
        assert cfg.weight_decay == 1e-5
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)
        assert cfg.batch_size == 2
        assert cfg.crop_size == 64
        assert (cfg.epochs_pretrain, cfg.epochs_finetune) == (75, 25)
        assert cfg.patience == 20

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)

    def test_rejects_indivisible_crop(self):
        with pytest.raises(ConfigError):
            TrainConfig(crop_size=50)

    def test_rejects_bad_scale_range(self):
        with pytest.raises(ConfigError):
            TrainConfig(scale_min=1.2, scale_max=0.8)

    @pytest.mark.parametrize("key", ["epochs_pretrain", "epochs_finetune"])
    @pytest.mark.parametrize("epochs", [0, -1])
    def test_rejects_nonpositive_epochs(self, key, epochs):
        with pytest.raises(ConfigError, match=f"{key} {epochs} "):
            TrainConfig(**{key: epochs})

    def test_config_from_parses_types(self):
        cfg = train_config_from(
            {"train.lr": "0.001", "train.batch_size": "4", "train.patience": "3",
             "train.seed": "7"}
        )
        assert cfg.lr == 0.001
        # int fields must come back as real ints (seed feeds default_rng)
        assert cfg.batch_size == 4 and isinstance(cfg.batch_size, int)
        assert cfg.patience == 3 and isinstance(cfg.patience, int)
        assert cfg.seed == 7 and isinstance(cfg.seed, int)

    def test_config_from_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            train_config_from({"train.momentum": "0.9"})

    def test_config_from_rejects_unparseable_value(self):
        with pytest.raises(ConfigError):
            train_config_from({"train.batch_size": "two"})


class TestOneHot:
    def test_encodes_each_class(self):
        labels = np.array([[0, 1], [2, 3]])
        enc = one_hot(labels)
        assert enc.shape == (2, 2, 4)
        np.testing.assert_array_equal(enc.argmax(axis=-1), labels)
        np.testing.assert_array_equal(enc.sum(axis=-1), np.ones((2, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(LabelError):
            one_hot(np.array([0, 4]))


class TestDiceLoss:
    def test_perfect_prediction(self):
        # probs exactly one-hot and equal to the target: zero loss
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=(1, 4, 4, 4))
        loss = dice_loss(onehot_probs(labels), onehot_probs(labels))
        assert loss.item() <= 1e-4

    def test_fully_disjoint(self):
        truth = np.zeros((1, 6, 6, 6), dtype=np.int64)
        truth[0, 0], truth[0, 1], truth[0, 2] = 1, 2, 3
        pred = np.zeros_like(truth)
        pred[0, 3], pred[0, 4], pred[0, 5] = 1, 2, 3
        loss = dice_loss(onehot_probs(pred), onehot_probs(truth))
        assert loss.item() >= 0.999

    def test_half_overlap_class_term(self):
        # one class with |P| = |G| = 8 and overlap 4 gives term 0.5; the two
        # remaining foreground classes are empty-vs-empty and contribute 0,
        # so the class-averaged loss is 0.5 / 3
        truth = np.zeros((1, 4, 4, 4), dtype=np.int64)
        truth[0, 0, :2, :] = 1
        pred = np.zeros_like(truth)
        pred[0, 0, 1:3, :] = 1
        assert (truth == 1).sum() == 8 and (pred == 1).sum() == 8
        assert ((truth == 1) & (pred == 1)).sum() == 4
        loss = dice_loss(onehot_probs(pred), onehot_probs(truth))
        assert loss.item() == pytest.approx(0.5 / 3, abs=1e-5)

    def test_empty_vs_empty_contributes_zero(self):
        # background-only volumes: every foreground class empty on both sides
        labels = np.zeros((2, 4, 4, 4), dtype=np.int64)
        assert dice_loss(onehot_probs(labels), onehot_probs(labels)).item() == 0.0

    def test_shape_mismatch_raises(self):
        a = onehot_probs(np.zeros((1, 4, 4, 4), dtype=np.int64))
        b = onehot_probs(np.zeros((1, 2, 2, 2), dtype=np.int64))
        with pytest.raises(ConfigError):
            dice_loss(a, b)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((1, 4, 2, 2, 2)))
        labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
        assert cross_entropy(logits, labels).item() == pytest.approx(math.log(4), abs=1e-6)

    def test_saturated_correct_class(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, size=(1, 3, 3, 3))
        logits = Tensor(np.moveaxis(np.eye(4)[labels], -1, 1) * 20.0)
        assert cross_entropy(logits, labels).item() < 1e-6

    def test_hand_case(self):
        arr = np.zeros((1, 4, 1, 1, 1))
        arr[0, 0] = 1.0
        labels = np.zeros((1, 1, 1, 1), dtype=np.int64)
        loss = cross_entropy(Tensor(arr), labels).item()
        assert loss == pytest.approx(math.log(1.0 + 3.0 / math.e), abs=1e-12)
        assert loss == pytest.approx(0.7437, abs=1e-4)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(2, 4, 3, 3, 3))
        labels = rng.integers(0, 4, size=(2, 3, 3, 3))
        a = cross_entropy(Tensor(z), labels).item()
        b = cross_entropy(Tensor(z + 1000.0), labels).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_invalid_label_raises(self):
        logits = Tensor(np.zeros((1, 4, 1, 1, 1)))
        with pytest.raises(LabelError):
            cross_entropy(logits, np.full((1, 1, 1, 1), 5))


class TestCompositeLoss:
    def test_perfect_prediction_near_zero(self):
        truth = np.zeros((1, 4, 4, 4), dtype=np.int64)
        truth[0, 1], truth[0, 2], truth[0, 3] = 1, 2, 3
        logits = Tensor(np.moveaxis(np.eye(4)[truth], -1, 1) * 20.0)
        assert composite_loss(logits, truth).item() <= 1e-4

    def test_dominates_each_component(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(2, 4, 4, 4, 4))
        labels = rng.integers(0, 4, size=(2, 4, 4, 4))
        total = composite_loss(Tensor(z), labels).item()
        dice = dice_loss(
            softmax(Tensor(z), axis=1), Tensor(_onehot_nchw(labels).astype(np.float64))
        ).item()
        ce = cross_entropy(Tensor(z), labels).item()
        assert total >= dice and total >= ce
        assert total == pytest.approx(dice + ce, abs=1e-9)
        assert total >= 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck_small_volume(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=(1, 2, 2, 2))
        gradcheck(
            lambda ts: composite_loss(ts[0], labels),
            [rng.normal(size=(1, 4, 2, 2, 2))],
            tol=1e-4,
        )


def scalar_adamw_reference(theta, g, m, v, t, lr, wd, b1, b2, eps):
    """Independent per-scalar AdamW step, plain Python arithmetic."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    theta = theta - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * theta)
    return theta, m, v


class TestAdamW:
    def test_first_step_closed_form(self):
        p = Parameter(np.zeros(1), name="w")
        p.grad = np.ones(1)
        opt = AdamW([p], lr=1e-4, weight_decay=1e-5)
        opt.step()
        # m_hat = v_hat = 1 after bias correction, decay term is zero at theta=0
        assert p.data[0] == pytest.approx(-1e-4 / (1.0 + 1e-8), abs=1e-12)
        assert p.data[0] == pytest.approx(-1e-4, abs=1e-9)

    def test_zero_grad_no_decay_is_identity(self):
        p = Parameter(np.array([1.5, -2.0]), name="w")
        p.grad = np.zeros(2)
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(p.data, np.array([1.5, -2.0]))

    def test_zero_grad_pure_decay(self):
        p = Parameter(np.full(3, 2.0), name="w")
        p.grad = np.zeros(3)
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        opt.step()
        np.testing.assert_allclose(p.data, 2.0 * (1.0 - 0.1 * 0.01), rtol=1e-15)

    def test_matches_scalar_reference(self):
        # 100 random (g, theta, moment state) triples, one step each
        rng = np.random.default_rng(42)
        lr, wd, b1, b2, eps = 3e-4, 1e-2, 0.9, 0.999, 1e-8
        for _ in range(100):
            theta = float(rng.normal())
            g = float(rng.normal())
            m0 = float(rng.normal() * 0.1)
            v0 = float(abs(rng.normal()) * 0.1)
            t_prev = int(rng.integers(0, 50))

            p = Parameter(np.array([theta]), name="w")
            p.grad = np.array([g])
            opt = AdamW([p], lr=lr, weight_decay=wd, beta1=b1, beta2=b2, eps=eps)
            opt.m[0] = np.array([m0])
            opt.v[0] = np.array([v0])
            opt.step_count = t_prev
            opt.step()

            expected, _, _ = scalar_adamw_reference(
                theta, g, m0, v0, t_prev + 1, lr, wd, b1, b2, eps
            )
            assert p.data[0] == pytest.approx(expected, abs=1e-12)

    def test_missing_grad_treated_as_zero(self):
        p = Parameter(np.ones(2), name="w")
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(p.data, np.ones(2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_matches_out_of_place_formula(self, dtype):
        rng = np.random.default_rng(17)
        lr, wd, b1, b2, eps = 3e-3, 1e-2, 0.9, 0.999, 1e-8
        params = [
            Parameter(rng.normal(size=shape).astype(dtype), name=f"p{i}")
            for i, shape in enumerate([(3, 4), (5,), (2, 1, 3)])
        ]
        theta = [p.data.copy() for p in params]
        m = [np.zeros_like(t) for t in theta]
        v = [np.zeros_like(t) for t in theta]
        opt = AdamW(params, lr=lr, weight_decay=wd, beta1=b1, beta2=b2, eps=eps)
        buffers = [p.data for p in params] + opt.m + opt.v
        for t in range(1, 4):
            step_lr = lr * (1.0 - 0.1 * t)
            for i, p in enumerate(params):
                g = rng.normal(size=p.shape).astype(dtype)
                p.grad = g
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                update = m_hat / (np.sqrt(v_hat) + eps) + wd * theta[i]
                theta[i] = theta[i] - step_lr * update
            opt.step(lr=step_lr)
            for i, p in enumerate(params):
                np.testing.assert_array_equal(p.data, theta[i])
                np.testing.assert_array_equal(opt.m[i], m[i])
                np.testing.assert_array_equal(opt.v[i], v[i])
        # the step wrote into the arrays it started with
        after = [p.data for p in params] + opt.m + opt.v
        assert all(x is y for x, y in zip(buffers, after))
        assert all(x.dtype == dtype for x in after)


def old_adamw_step(opt, lr):
    """Reference step: the whole-array update, six parameter-sized
    temporaries per parameter, as AdamW stepped before it went by chunks."""
    opt.step_count += 1
    t = opt.step_count
    for p, m, v in zip(opt.params, opt.m, opt.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        update = m / (1.0 - opt.beta1**t)
        denom = v / (1.0 - opt.beta2**t)
        np.sqrt(denom, out=denom)
        denom += opt.eps
        update /= denom
        update += opt.weight_decay * p.data
        update *= lr
        p.data -= update


class TestChunkedAdamW:
    # one parameter longer than a chunk and of odd size, one short and odd,
    # and one without a gradient
    SHAPES = [(3, train._ADAMW_CHUNK // 3 + 7), (7,), (2, 3)]

    def params(self, dtype, seed=0):
        rng = np.random.default_rng(seed)
        return [Parameter(rng.normal(size=s).astype(dtype), name=f"p{i}")
                for i, s in enumerate(self.SHAPES)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_whole_array_step(self, dtype):
        new, old = self.params(dtype), self.params(dtype)
        opts = [AdamW(ps, lr=1e-3, weight_decay=1e-2) for ps in (new, old)]
        rng = np.random.default_rng(1)
        for t in range(4):
            grads = [rng.normal(size=s).astype(dtype) for s in self.SHAPES[:-1]] + [None]
            for ps in (new, old):
                for p, g in zip(ps, grads):
                    p.grad = None if g is None else g.copy()
            opts[0].step(lr=1e-3 * (1 - 0.2 * t))
            old_adamw_step(opts[1], 1e-3 * (1 - 0.2 * t))
            for a, b in zip([p.data for p in new] + opts[0].m + opts[0].v,
                            [p.data for p in old] + opts[1].m + opts[1].v):
                assert a.dtype == dtype and a.tobytes() == b.tobytes()

    def test_step_allocates_two_chunks(self):
        params = self.params(np.float32)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt = AdamW(params)
        opt.step()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            opt.step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the two float32 scratch chunks, the gradient-less parameter's
        # zeros and small change; the whole-array step made six copies of
        # the largest parameter (786 KiB)
        assert peak <= 2 * 4 * train._ADAMW_CHUNK + (16 << 10), peak

    def test_non_contiguous_parameter_is_refused(self):
        p = Parameter(np.zeros((4, 3)).T, name="w")
        p.grad = np.ones_like(p.data)
        with pytest.raises(ValueError, match="C-contiguous"):
            AdamW([p]).step()


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 10, 1e-4) == 1e-4
        assert cosine_lr(10, 10, 1e-4) == 0.0
        assert cosine_lr(5, 10, 1e-4) == pytest.approx(5e-5, abs=1e-18)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(t, 100, 1e-4) for t in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_clamps_out_of_range_epochs(self):
        assert cosine_lr(-3, 10, 1e-4) == 1e-4
        assert cosine_lr(15, 10, 1e-4) == 0.0

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ConfigError):
            cosine_lr(0, 0, 1e-4)


class TestAugmentation:
    def _sample(self, seed=0):
        rng = np.random.default_rng(seed)
        images = rng.normal(size=(4, 8, 8, 8)).astype(np.float32)
        label = rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8)
        return images, label

    def test_identity_params_identity_output(self):
        images, label = self._sample()
        params = AugmentParams(flips=(False, False, False), axis=0, angle_degrees=0.0, scale=1.0)
        out_img, out_lab = apply_augmentation(images, label, params)
        np.testing.assert_array_equal(out_img, images)
        np.testing.assert_array_equal(out_lab, label)

    def test_double_flip_is_identity(self):
        images, label = self._sample(1)
        params = AugmentParams(flips=(True, True, False), axis=0, angle_degrees=0.0, scale=1.0)
        once = apply_augmentation(images, label, params)
        twice = apply_augmentation(*once, params)
        np.testing.assert_array_equal(twice[0], images)
        np.testing.assert_array_equal(twice[1], label)

    def test_label_closure_under_rotation(self):
        images, label = self._sample(2)
        params = AugmentParams(flips=(True, False, True), axis=1, angle_degrees=7.3, scale=1.05)
        out_img, out_lab = apply_augmentation(images, label, params)
        assert set(np.unique(out_lab)) <= {0, 1, 2, 3}
        assert out_img.shape == images.shape
        assert out_lab.shape == label.shape
        assert out_lab.dtype == label.dtype

    def test_sampling_is_seeded(self):
        cfg = TrainConfig()
        a = sample_augmentation(np.random.default_rng(9), cfg)
        b = sample_augmentation(np.random.default_rng(9), cfg)
        assert a == b
        assert -cfg.rotation_degrees <= a.angle_degrees <= cfg.rotation_degrees
        assert cfg.scale_min <= a.scale <= cfg.scale_max
        assert a.axis in (0, 1, 2)

    def test_sampling_covers_flip_space(self):
        cfg = TrainConfig()
        rng = np.random.default_rng(10)
        seen = {sample_augmentation(rng, cfg).flips for _ in range(200)}
        assert len(seen) == 8


class TestRandomCrop:
    def test_full_size_crop_is_identity(self):
        rng = np.random.default_rng(0)
        images = rng.normal(size=(4, 32, 32, 32)).astype(np.float32)
        label = rng.integers(0, 4, size=(32, 32, 32)).astype(np.uint8)
        out_img, out_lab = random_crop(images, label, 32, np.random.default_rng(1))
        np.testing.assert_array_equal(out_img, images)
        np.testing.assert_array_equal(out_lab, label)

    def test_all_background_unconstrained(self):
        images = np.ones((4, 40, 40, 40), dtype=np.float32)
        label = np.zeros((40, 40, 40), dtype=np.uint8)
        out_img, out_lab = random_crop(images, label, 32, np.random.default_rng(2))
        assert out_img.shape == (4, 32, 32, 32)
        assert not out_lab.any()

    def test_small_volume_zero_padded(self):
        images = np.ones((4, 20, 20, 20), dtype=np.float32)
        label = np.ones((20, 20, 20), dtype=np.uint8)
        out_img, out_lab = random_crop(images, label, 32, np.random.default_rng(3))
        assert out_img.shape == (4, 32, 32, 32)
        assert out_lab.shape == (32, 32, 32)
        # original content survives in the leading corner, padding is zero
        np.testing.assert_array_equal(out_img[:, :20, :20, :20], images)
        assert not out_lab[20:].any()

    def test_foreground_bias_statistics(self):
        # single tumor voxel in a corner: an unbiased 32-crop of a 40-cube
        # would contain it with probability (4/9)^3 ~ 0.088 per draw
        rng = np.random.default_rng(7)
        images = np.ones((4, 40, 40, 40), dtype=np.float32)
        label = np.zeros((40, 40, 40), dtype=np.uint8)
        label[3, 3, 3] = 2
        hits = sum(
            bool((random_crop(images, label, 32, rng)[1] > 0).any()) for _ in range(200)
        )
        assert hits >= 80


def small_model(seed=1):
    return GliomaForgeNet(config=ModelConfig(**SMALL), seed=seed)


def synthetic_training_cases(n=4, seed=11):
    return [training_case(c) for c in make_dataset(n, shape=(32, 32, 32), seed=seed)]


class TestPrecision:
    def test_float32_model_stays_float32_through_adamw(self):
        rng = np.random.default_rng(21)
        model = small_model()
        x = Tensor(rng.normal(size=(1, 4, 32, 32, 32)).astype(np.float32))
        labels = rng.integers(0, 4, size=(1, 32, 32, 32))
        opt = AdamW(model.parameters(), lr=1e-3)
        for _ in range(2):
            model.zero_grad()
            logits = model(x)
            loss = composite_loss(logits, labels)
            loss.backward()
            opt.step()
            assert logits.dtype == np.float32
            assert loss.dtype == np.float32
            for p in model.parameters():
                assert p.grad.dtype == np.float32, p.name
                assert p.data.dtype == np.float32, p.name
            assert {a.dtype for a in opt.m + opt.v} == {np.dtype(np.float32)}


class TestTrainingCase:
    def test_from_multimodal_case(self):
        case = make_dataset(1, shape=(32, 32, 32), seed=0)[0]
        tc = training_case(case)
        assert tc.images.shape == (4, 32, 32, 32)
        assert tc.images.dtype == np.float32
        assert tc.label.shape == (32, 32, 32)
        # z-scored foreground, untouched zero background
        brain = case.modalities["t1"].data != 0
        assert abs(float(tc.images[0][brain].mean())) < 1e-3
        assert not tc.images[0][~brain].any()

    def test_requires_label(self):
        case = make_dataset(1, shape=(32, 32, 32), seed=0)[0]
        case.label = None
        with pytest.raises(LabelError):
            training_case(case)

    def test_shape_agreement_enforced(self):
        with pytest.raises(ConfigError):
            TrainingCase("x", np.zeros((4, 8, 8, 8)), np.zeros((4, 4, 4), dtype=np.uint8))


class TestMeanForegroundDice:
    def test_perfect_and_empty(self):
        labels = np.zeros((4, 4, 4), dtype=np.uint8)
        labels[0] = 2
        assert mean_foreground_dice(labels, labels) == 1.0
        empty = np.zeros_like(labels)
        assert mean_foreground_dice(empty, empty) == 1.0

    def test_half_overlap_single_class(self):
        truth = np.zeros((4, 4, 4), dtype=np.uint8)
        truth[:2] = 1
        pred = np.zeros_like(truth)
        pred[1:3] = 1
        # class 1 dice 0.5, classes 2 and 3 both empty count as 1
        assert mean_foreground_dice(pred, truth) == pytest.approx((0.5 + 1 + 1) / 3)


def _on_stage_start(monkeypatch, net, hook):
    """Makes each of `net`'s stages after the first call hook(its index)
    before it runs."""
    call = model_module._Stage.__call__

    def calling(stage, x):
        if stage is not net.stages[0]:
            hook(net.stages.index(stage))
        return call(stage, x)

    monkeypatch.setattr(model_module._Stage, "__call__", calling)


def _taken_inputs(monkeypatch):
    """Weak references to each array stage 1's merge takes as the input."""
    refs = []
    take = model_module._StemInput.take

    def taking(holder):
        x = take(holder)
        refs.append(weakref.ref(x.data if x.data.base is None else x.data.base))
        return x

    monkeypatch.setattr(model_module._StemInput, "take", taking)
    return refs


class TestPredictLabels:
    """predict_labels is one grad-off pad, forward, argmax and crop; its
    labels are the first-max argmax of the whole logits, to the bit."""

    @pytest.mark.parametrize(
        "small, dims",
        [
            (True, (40, 36, 33)),  # padded to 64^3
            (False, (40, 36, 33)),  # 1/4-resolution blocks of two planes
            (False, (40, 30, 61)),  # blocks of three, cropped inside the fourth
            (True, (32, 32, 32)),  # no padding: the caller's array itself
        ],
    )
    def test_equals_argmax_of_logits(self, small, dims):
        net = small_model() if small else GliomaForgeNet(seed=1)
        images = np.random.default_rng(5).normal(size=(4, *dims)).astype(np.float32)
        kept = images.copy()
        labels = predict_labels(net, images)
        padded = np.zeros((1, 4, *train.padded_dims(dims)), dtype=np.float32)
        padded[0, :, : dims[0], : dims[1], : dims[2]] = images
        with no_grad():
            logits = net(Tensor(padded)).data
        want = np.argmax(logits[0], axis=0)[: dims[0], : dims[1], : dims[2]].astype(np.uint8)
        assert labels.dtype == np.uint8 and labels.flags.c_contiguous
        assert labels.tobytes() == want.tobytes()
        assert images.tobytes() == kept.tobytes()

    def test_peak_below_one_full_grid_logits(self):
        # beyond its input, the forward holds stage 1's merge columns and
        # face slabs at most: no full-grid logits array, nor its argmax copy
        net = small_model()
        images = np.random.default_rng(6).normal(size=(4, 128, 128, 96)).astype(np.float32)
        predict_labels(net, images[:, :32, :32, :32])  # draws the weights
        tracemalloc.start()
        try:
            labels = predict_labels(net, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.shape == (128, 128, 96)
        assert peak < 4 * 4 * 128 * 128 * 96  # float32 logits of 4 classes

    def test_handed_over_input_freed_before_stage_2(self, monkeypatch):
        net = small_model()
        refs = _taken_inputs(monkeypatch)
        alive = []
        _on_stage_start(
            monkeypatch, net, lambda i: alive.append((i, [ref() is not None for ref in refs]))
        )
        rng = np.random.default_rng(7)
        slot = [rng.normal(size=(4, 32, 32, 32)).astype(np.float32)]
        predict_labels(net, slot)  # no padding: the handed-over array itself
        assert slot == [] and alive[0] == (1, [False])
        alive.clear()
        images = rng.normal(size=(4, 30, 32, 31)).astype(np.float32)
        predict_labels(net, images)  # the padded copy made here
        assert refs[1]() is None and alive[0] == (1, [False, False])

    def test_callers_array_kept(self, monkeypatch):
        net = small_model()
        refs = _taken_inputs(monkeypatch)
        images = np.random.default_rng(8).normal(size=(4, 32, 32, 32)).astype(np.float32)
        kept = images.copy()
        labels = predict_labels(net, images)
        assert refs[0]() is images
        assert images.tobytes() == kept.tobytes()
        assert labels.tobytes() == predict_labels(net, [kept]).tobytes()

    def test_validation_leaves_unpadded_images_unchanged(self):
        cases = synthetic_training_cases(n=2)
        kept = [c.images.copy() for c in cases]
        validation_dice(small_model(), cases)
        assert all(c.images.tobytes() == k.tobytes() for c, k in zip(cases, kept))


def retained_backward(loss):
    """`Tensor.backward` as it was before it released the graph: the same
    sweep, keeping every closure and every intermediate gradient."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def training_batch(size=32, batch=2, seed=1):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(batch, 4, size, size, size)).astype(np.float32))
    return x, rng.integers(0, 4, size=(batch, size, size, size))


class TestBackwardRelease:
    def test_leaf_gradients_equal_retained_sweep(self):
        model = GliomaForgeNet(seed=2)
        x, labels = training_batch()
        grads = []
        for sweep in (retained_backward, Tensor.backward):
            model.zero_grad()
            sweep(composite_loss(model(x), labels))
            grads.append([p.grad.tobytes() for p in model.parameters()])
        assert grads[0] == grads[1]

    def test_backward_peak_stays_near_the_graph(self):
        model = small_model()
        params = model.parameters()
        grad_bytes = sum(p.data.nbytes for p in params)  # draws the weights
        model.zero_grad()
        x, labels = training_batch()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = composite_loss(model(x), labels)
            graph = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a retained sweep holds every intermediate gradient on top of the
        # graph: 59.3 MiB against a 38.9 MiB graph at this size. Released,
        # the peak is the graph, the new parameter gradients and one
        # closure's temporaries (41.4 MiB against a 37.9 MiB graph).
        assert peak <= graph + grad_bytes + 8 * 2**20


class TestFit:
    def test_loss_decreases_on_fixed_cases(self):
        cases = synthetic_training_cases()
        cfg = TrainConfig(crop_size=32, batch_size=2, lr=1e-3, seed=5)
        result = fit(small_model(), cases, [], cfg, epochs=10)
        losses = [row["train_loss"] for row in result.log]
        assert len(losses) == 10
        # trend, not monotone: late epochs clearly below early epochs
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_same_seed_identical_curve(self):
        cases = synthetic_training_cases()
        cfg = TrainConfig(crop_size=32, batch_size=2, lr=1e-3, seed=5)
        log_a = fit(small_model(seed=3), cases, cases[:1], cfg, epochs=3).log
        log_b = fit(small_model(seed=3), cases, cases[:1], cfg, epochs=3).log
        assert log_a == log_b

    def test_patience_zero_stops_after_first_stale_epoch(self):
        cases = synthetic_training_cases(n=2)
        cfg = TrainConfig(crop_size=32, batch_size=2, patience=0, seed=5)
        # empty validation set scores 0.0 every epoch, so epoch 1 never improves
        result = fit(small_model(), cases, [], cfg, epochs=5)
        assert len(result.log) == 2
        assert result.best_epoch == 0

    def test_nan_loss_raises_with_diagnostics(self):
        cases = synthetic_training_cases(n=2)
        cfg = TrainConfig(crop_size=32, batch_size=2, seed=5)
        model = small_model()
        model.named_parameters()["decoder.head.weight"].data[:] = np.nan
        with pytest.raises(TrainingDivergedError) as err:
            fit(model, cases, [], cfg, epochs=2)
        assert err.value.epoch == 0
        assert err.value.lr == pytest.approx(cfg.lr)

    def test_requires_training_cases(self):
        with pytest.raises(ConfigError):
            fit(small_model(), [], [], TrainConfig(crop_size=32), epochs=1)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_rejects_nonpositive_epochs(self, epochs):
        cases = synthetic_training_cases(n=1)
        with pytest.raises(ConfigError, match=f"got {epochs}"):
            fit(small_model(), cases, [], TrainConfig(crop_size=32), epochs=epochs)

    def test_validation_sees_zero_gradients(self, monkeypatch):
        cases = synthetic_training_cases(n=2)
        cfg = TrainConfig(crop_size=32, batch_size=2, lr=1e-3, seed=5)
        model = small_model()
        seen = []

        def validating(net, val_cases):
            seen.append(all(not p.grad.any() for p in net.parameters()))
            return validate(net, val_cases)

        validate = train.validation_dice
        monkeypatch.setattr(train, "validation_dice", validating)
        fit(model, cases, cases[:1], cfg, epochs=2)
        assert seen == [True, True]

    def test_best_params_track_best_epoch(self):
        cases = synthetic_training_cases(n=2)
        cfg = TrainConfig(crop_size=32, batch_size=2, lr=1e-3, seed=5)
        model = small_model()
        result = fit(model, cases, cases, cfg, epochs=3)
        current = model.named_parameters()
        assert set(result.best_params) == set(current)
        assert result.best_val_dice >= 0.0
        assert 0 <= result.best_epoch < 3

    def test_log_csv_roundtrip(self, tmp_path):
        rows = [
            {"epoch": 0, "lr": 1e-4, "train_loss": 2.5, "val_dice": 0.1},
            {"epoch": 1, "lr": 9e-5, "train_loss": 2.25, "val_dice": 0.15},
        ]
        path = tmp_path / "log.csv"
        write_fit_log(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_dice"
        assert lines[1].startswith("0,0.0001,2.5,0.1")
        assert len(lines) == 3
