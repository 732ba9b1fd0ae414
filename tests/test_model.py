"""Network architecture: stem, encoder, attention gates, decoder."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from gliomaforge import model as model_module
from gliomaforge.autodiff import Tensor, conv3d, load_checkpoint, no_grad
from gliomaforge.autodiff import conv as conv_module
from gliomaforge.autodiff.tensor import _accumulate
from gliomaforge.errors import CheckpointError, ConfigError, ShapeError
from gliomaforge.model import (
    GliomaForgeNet,
    ModelConfig,
    _Attention,
    _MixFFN,
    _Store,
    _to_grid,
    _to_tokens,
)
from gliomaforge.selftest import (
    decoder_gradcheck,
    mix_ffn_gradcheck,
    random_mix_ffn,
    stem_merge_fold_check,
)
from gliomaforge.train import AdamW, composite_loss, predict_labels

SMALL = dict(
    stage_channels=[8, 16, 32, 64],
    stage_heads=[1, 2, 4, 8],
    stage_depths=[1, 1, 1, 1],
    decoder_channels=8,
    ffn_expansion=2,
)


def small_net(seed=0, dtype=np.float32):
    return GliomaForgeNet(ModelConfig(**SMALL), seed=seed, dtype=dtype)


class _EagerStore(_Store):
    """Draws each Kaiming weight when it is created: the reference the
    deferred draw must reproduce bit for bit."""

    def kaiming(self, name, shape, fan_in):
        std = math.sqrt(2.0 / fan_in)
        return self._add(name, self.rng.normal(0.0, std, size=shape).astype(self.dtype))


def eager_params(monkeypatch, config, seed, dtype):
    with monkeypatch.context() as patch:
        patch.setattr(model_module, "_Store", _EagerStore)
        net = GliomaForgeNet(config, seed=seed, dtype=dtype)
    return {name: p.data for name, p in net.named_parameters().items()}


def assert_fresh_generator(net, seed):
    fresh = np.random.default_rng(seed).bit_generator.state
    assert net._store.rng.bit_generator.state == fresh


class TestConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.stage_channels == [48, 96, 192, 384]
        assert cfg.stage_heads == [4, 4, 6, 8]
        assert cfg.stage_strides == [4, 2, 2, 2]

    def test_list_length_checked(self):
        with pytest.raises(ConfigError):
            ModelConfig(stage_channels=[48, 96, 192])

    def test_heads_divide_channels(self):
        with pytest.raises(ConfigError):
            ModelConfig(stage_heads=[5, 4, 6, 8])

    def test_stride_product(self):
        with pytest.raises(ConfigError):
            ModelConfig(stage_strides=[4, 2, 2, 4])

    @pytest.mark.parametrize(
        "kwargs",
        [{"channel_attn_reduction": 0}, {"channel_attn_reduction": -8},
         {"stage_heads": [1, 0, 5, 8]}, {"stage_strides": [-4, -2, 2, 2]},
         {"spatial_attn_kernel": -1}, {"stage_channels": [0, 96, 192, 384]},
         {"sr_ratios": [0, 4, 2, 1]}, {"sr_ratios": [-8, 4, 2, 1]}],
        ids=["reduction-zero", "reduction-negative", "head-zero", "strides-negative",
             "kernel-negative", "channels-zero", "sr-zero", "sr-negative"],
    )
    def test_nonpositive_heads_and_reduction_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)


class TestStem:
    def test_constant_input_interior(self):
        # low path starts as an exact 3^3 box mean
        net = small_net()
        x = np.zeros((1, 4, 5, 5, 5), dtype=np.float32)
        for c in range(4):
            x[0, c] = c + 1.0
        with no_grad():
            out = net.frequency_stem(Tensor(x))
        assert out.shape == (1, 8, 5, 5, 5)
        for c in range(4):
            interior = out.data[0, c, 1:-1, 1:-1, 1:-1]
            np.testing.assert_allclose(interior, c + 1.0, atol=1e-5)
            assert out.data[0, c, 0, 0, 0] < c + 1.0  # zero padding thins the corner

    def test_high_plus_low_identity(self):
        # must hold for arbitrary weights, not just at init
        net = small_net()
        rng = np.random.default_rng(0)
        net.stem_low.weight.data = rng.normal(size=net.stem_low.weight.shape).astype(np.float32)
        net.stem_high.weight.data = rng.normal(size=net.stem_high.weight.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(1, 4, 6, 6, 6)).astype(np.float32))
        with no_grad():
            out = net.frequency_stem(x)
            high_conv = net.stem_high(x)
        recombined = out.data[:, :4] + out.data[:, 4:]
        np.testing.assert_allclose(recombined, high_conv.data, atol=1e-6)

    def test_doubles_channels(self):
        net = small_net()
        with no_grad():
            out = net.frequency_stem(Tensor(np.zeros((2, 4, 4, 4, 4), dtype=np.float32)))
        assert out.shape[1] == 8


class TestAttention:
    def test_single_token_passthrough(self):
        # one key: softmax weight is 1, output = proj(v(token))
        store = _Store(0, np.float64)
        attn = _Attention(store, "a", channels=6, heads=1, sr_ratio=1)
        rng = np.random.default_rng(1)
        tokens = Tensor(rng.normal(size=(1, 1, 6)))
        with no_grad():
            out = attn(tokens, (1, 1, 1))
            expected = attn.proj(attn.v(tokens))
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_weights_sum_to_one(self):
        store = _Store(2, np.float64)
        attn = _Attention(store, "a", channels=16, heads=4, sr_ratio=2)
        rng = np.random.default_rng(3)
        tokens = Tensor(rng.normal(size=(2, 64, 16)))
        with no_grad():
            weights, _ = attn.attention_map(tokens, (4, 4, 4))
        assert weights.shape == (2, 4, 64, 8)
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(weights.data > 0)

    def test_shape_preserved_all_stages(self):
        cfg = ModelConfig()
        rng = np.random.default_rng(4)
        for i in range(4):
            store = _Store(i, np.float32)
            attn = _Attention(
                store, "a", cfg.stage_channels[i], cfg.stage_heads[i], cfg.sr_ratios[i]
            )
            tokens = Tensor(rng.normal(size=(1, 27, cfg.stage_channels[i])).astype(np.float32))
            with no_grad():
                out = attn(tokens, (3, 3, 3))
            assert out.shape == tokens.shape

    def test_sr_clamped_to_grid(self):
        # ratio 4 on a 2^3 grid must still give >= 1 key
        store = _Store(5, np.float32)
        attn = _Attention(store, "a", channels=8, heads=2, sr_ratio=4)
        rng = np.random.default_rng(5)
        tokens = Tensor(rng.normal(size=(1, 8, 8)).astype(np.float32))
        with no_grad():
            weights, _ = attn.attention_map(tokens, (2, 2, 2))
        assert weights.shape[-1] == 1


class TestChunkedAttention:
    """Queries run in chunks of at most `_QUERY_CHUNK` rows against the full K/V.
    Each row of the map depends on its own query alone, so the output is
    the unchunked map's, byte for byte."""

    @pytest.mark.parametrize("length", [7, 8, 9, 29])  # chunk-1, chunk, chunk+1, 3*chunk+5
    def test_equals_unchunked_map(self, monkeypatch, length):
        monkeypatch.setattr(model_module, "_QUERY_CHUNK", 8)
        maps = []

        def counting(attn, q, k_t):
            maps.append(q.shape[2])
            return weights(attn, q, k_t)

        weights = _Attention._weights
        monkeypatch.setattr(_Attention, "_weights", counting)
        store = _Store(21, np.float32)
        attn = _Attention(store, "a", channels=16, heads=2, sr_ratio=1)
        rng = np.random.default_rng(22)
        tokens = Tensor(rng.normal(size=(2, length, 16)).astype(np.float32))
        grid = (length, 1, 1)
        with no_grad():
            chunked = attn(tokens, grid)
            assert len(maps) == -(-length // 8) and max(maps) <= 8 and sum(maps) == length
            maps.clear()
            weights, kv = attn.attention_map(tokens, grid)
            full = (weights @ attn._split(attn.v(kv))).permute(0, 2, 1, 3)
            ref = attn.proj(full.reshape(2, length, 16))
        assert weights.shape == (2, 2, length, length)
        assert chunked.data.tobytes() == ref.data.tobytes()


class TestAttentionSoftmax:
    """Attention normalizes each chunk's scaled q @ k^T with the one softmax
    node, whose forward is the same with grad on and off."""

    def _attention(self):
        attn = _Attention(_Store(24, np.float32), "a", channels=16, heads=2, sr_ratio=4)
        rng = np.random.default_rng(25)
        for layer in (attn.q, attn.k, attn.v, attn.proj):
            for p in (layer.weight, layer.bias):
                p.data = rng.normal(size=p.shape).astype(np.float32)
        # 9216 queries: two chunks of 4608 against 144 K/V tokens
        tokens = Tensor(rng.normal(size=(1, 9216, 16)).astype(np.float32))
        return attn, tokens, (36, 16, 16)

    def test_grad_off_equals_graph_across_chunks(self):
        attn, tokens, grid = self._attention()
        graph = attn(tokens, grid).data
        graph_map = attn.attention_map(tokens, grid)[0].data
        with no_grad():
            out = attn(tokens, grid).data
            weights = attn.attention_map(tokens, grid)[0].data
        assert weights.shape == (1, 2, 9216, 144)
        assert weights.tobytes() == graph_map.tobytes()
        assert out.tobytes() == graph.tobytes()

    def test_grad_off_holds_two_maps_per_chunk(self):
        # the scaled scores and the softmax's one array: a third map-sized
        # array alive at once would pass 3 maps
        attn, tokens, grid = self._attention()
        with no_grad():
            attn(tokens, grid)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                attn(tokens, grid)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        chunk_map = 2 * 4608 * 144 * 4
        assert peak <= 2.5 * chunk_map


class TestMixFFN:
    def test_zero_second_linear_gives_zero(self):
        net = small_net()
        ffn = net.stages[0].blocks[0].ffn
        ffn.fc2.weight.data = np.zeros_like(ffn.fc2.weight.data)
        ffn.fc2.bias.data = np.zeros_like(ffn.fc2.bias.data)
        rng = np.random.default_rng(6)
        tokens = Tensor(rng.normal(size=(1, 8, 8)).astype(np.float32))
        with no_grad():
            out = ffn(tokens, (2, 2, 2))
        np.testing.assert_array_equal(out.data, 0.0)


class TestBlockedMixFFN:
    """With grad off, `_MixFFN` runs a block of output depth planes at a
    time, and its output has the graph's bits."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "channels, expansion, grid, blocks",
        [
            (32, 4, (1, 16, 16), [1]),  # default stage-1 widths; D = 1
            (32, 4, (3, 8, 8), [3]),  # D under one block, and under the BLAS cutoff
            (32, 4, (5, 16, 16), [2, 2, 1]),  # D not a multiple of the block
            (160, 4, (12, 3, 3), [12]),  # stage-3 widths: a short tail joins its block
            (256, 4, (2, 2, 1), [2]),  # default stage-4 widths, 64x64x32 input
            (8, 2, (3, 96, 96), [1, 1, 1]),  # SMALL stage-1 widths, one plane a block
            (8, 2, (4, 8, 8), [4]),  # SMALL, the whole product under the cutoff
            (16, 2, (8, 8, 4), [8]),  # SMALL stage-2 widths, 64x64x32 input
        ],
    )
    def test_equals_graph(self, monkeypatch, n, channels, expansion, grid, blocks):
        ffn = random_mix_ffn(channels, expansion, seed=n)
        rng = np.random.default_rng(30 + n)
        tokens = Tensor(rng.normal(size=(n, int(np.prod(grid)), channels)).astype(np.float32))
        graph = ffn(tokens, grid).data
        seen = []

        def counting(padded, taps, k, stride, out_spatial):
            seen.append(out_spatial[0])
            return depthwise(padded, taps, k, stride, out_spatial)

        depthwise = model_module._depthwise
        monkeypatch.setattr(model_module, "_depthwise", counting)
        with no_grad():
            blocked = ffn(tokens, grid).data
        assert seen == blocks * n
        assert blocked.dtype == graph.dtype and blocked.shape == graph.shape
        assert blocked.tobytes() == graph.tobytes()


class TestForward:
    def test_shape_contract_64(self):
        net = GliomaForgeNet(seed=0)
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 4, 64, 64, 64)).astype(np.float32))
        with no_grad():
            stem = net.frequency_stem(x)
            pyramid = net.encode(stem)
            logits = net.decoder(pyramid, net.dual(pyramid[3]))
        shapes = [p.shape for p in pyramid]
        assert shapes == [
            (1, 48, 16, 16, 16),
            (1, 96, 8, 8, 8),
            (1, 192, 4, 4, 4),
            (1, 384, 2, 2, 2),
        ]
        assert logits.shape == (1, 4, 64, 64, 64)
        assert np.all(np.isfinite(logits.data))

    def test_minimal_input_and_batch(self):
        net = small_net()
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 4, 32, 32, 32)).astype(np.float32))
        with no_grad():
            out = net(x)
        assert out.shape == (2, 4, 32, 32, 32)

    def test_indivisible_rejected(self):
        net = small_net()
        with pytest.raises(ShapeError, match="divisible by 32"):
            net(Tensor(np.zeros((1, 4, 48, 48, 48), dtype=np.float32)))

    def test_wrong_channels_rejected(self):
        net = small_net()
        with pytest.raises(ShapeError):
            net(Tensor(np.zeros((1, 3, 32, 32, 32), dtype=np.float32)))

    def test_eval_determinism(self):
        net = small_net()
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 4, 32, 32, 32)).astype(np.float32)
        with no_grad():
            a = net(Tensor(x)).data
            b = net(Tensor(x)).data
        np.testing.assert_array_equal(a, b)


# a valid non-default value for every ModelConfig field, on the small model
FIELD_VALUES = [
    ("in_channels", 2),
    ("num_classes", 3),
    ("stage_channels", [12, 16, 40, 64]),
    ("stage_heads", [2, 4, 2, 4]),
    ("stage_strides", [2, 2, 2, 4]),
    ("stage_strides", [2, 4, 2, 2]),
    ("stage_strides", [8, 2, 2, 1]),
    ("stage_depths", [2, 1, 1, 2]),
    ("sr_ratios", [4, 2, 1, 1]),
    ("decoder_channels", 12),
    ("spatial_attn_kernel", 3),
    ("channel_attn_reduction", 4),
    ("ffn_expansion", 3),
]


class TestEveryField:
    """Each field that `ModelConfig` accepts builds a network that trains
    and predicts on the input's grid."""

    def test_every_field_is_covered(self):
        assert {name for name, _ in FIELD_VALUES} == {f.name for f in fields(ModelConfig)}

    @pytest.mark.parametrize("name, value", FIELD_VALUES, ids=lambda v: str(v))
    def test_trains_a_step_and_predicts(self, name, value):
        cfg = ModelConfig(**{**SMALL, name: value})
        net = GliomaForgeNet(cfg, seed=4)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, cfg.in_channels, 32, 32, 32)).astype(np.float32))
        logits = net(x)
        assert logits.shape == (1, cfg.num_classes, 32, 32, 32)
        loss = composite_loss(logits, rng.integers(0, cfg.num_classes, size=(1, 32, 32, 32)))
        loss.backward()
        assert np.isfinite(loss.item())
        assert all(p.grad is not None and np.isfinite(p.grad).all() for p in net.parameters())
        AdamW(net.parameters(), lr=1e-3).step()
        images = rng.normal(size=(cfg.in_channels, 40, 64, 33)).astype(np.float32)
        labels = predict_labels(net, images)
        assert labels.shape == (40, 64, 33) and labels.dtype == np.uint8
        assert labels.max() < cfg.num_classes


class TestDualAttention:
    def test_gates_strictly_inside_unit_interval(self):
        net = small_net()
        rng = np.random.default_rng(10)
        f = Tensor(rng.normal(size=(1, 64, 2, 2, 2)).astype(np.float32))
        with no_grad():
            pooled_gate = net.dual.spatial(
                Tensor(rng.normal(size=(1, 2, 2, 2, 2)).astype(np.float32))
            ).sigmoid()
            out = net.dual(f)
        assert np.all(pooled_gate.data > 0) and np.all(pooled_gate.data < 1)
        assert np.all(np.abs(out.data) <= np.abs(f.data) + 1e-7)

    def test_saturation_identity(self):
        # zero weights + large positive biases push both gates to ~1
        net = small_net()
        dual = net.dual
        dual.spatial.weight.data = np.zeros_like(dual.spatial.weight.data)
        dual.spatial.bias.data = np.full_like(dual.spatial.bias.data, 20.0)
        dual.fc2.weight.data = np.zeros_like(dual.fc2.weight.data)
        dual.fc2.bias.data = np.full_like(dual.fc2.bias.data, 20.0)
        rng = np.random.default_rng(11)
        f = Tensor(rng.normal(size=(1, 64, 2, 2, 2)).astype(np.float32))
        with no_grad():
            out = net.dual(f)
        np.testing.assert_allclose(out.data, f.data, atol=1e-3)


class TestGradients:
    def test_every_parameter_reached(self):
        net = small_net()
        for p in net.parameters():
            p.grad = None
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(1, 4, 32, 32, 32)).astype(np.float32))
        out = net(x)
        (out * out).mean().backward()
        unreached = [p.name for p in net.parameters() if p.grad is None]
        assert unreached == []

    def test_end_to_end_gradcheck(self):
        # float64 graph; 10 sampled parameter entries vs central differences
        net = GliomaForgeNet(ModelConfig(**SMALL), seed=0, dtype=np.float64)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1, 4, 32, 32, 32))
        target = rng.normal(size=(1, 4, 32, 32, 32))

        def loss_value():
            with no_grad():
                out = net(Tensor(x))
            return float(np.mean((out.data - target) ** 2))

        out = net(Tensor(x))
        diff = out - Tensor(target)
        (diff * diff).mean().backward()

        params = net.parameters()
        picker = np.random.default_rng(14)
        worst = 0.0
        for _ in range(10):
            p = params[picker.integers(len(params))]
            idx = int(picker.integers(p.size))
            flat = p.data.reshape(-1)
            keep = flat[idx]
            step = 1e-4
            flat[idx] = keep + step
            up = loss_value()
            flat[idx] = keep - step
            down = loss_value()
            flat[idx] = keep
            numeric = (up - down) / (2 * step)
            analytic = p.grad.reshape(-1)[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, err)
        assert worst < 1e-3


class TestHeadFold:
    """The decoder runs head(upfinal(x)) as one transposed conv whose weight
    and bias are composed from the two layers' parameters."""

    def test_equals_unfused_head_of_upfinal(self):
        net = small_net(dtype=np.float64)
        dec = net.decoder
        rng = np.random.default_rng(23)
        for p in (dec.upfinal.bias, dec.head.bias):  # zero at init
            p.data = rng.normal(size=p.shape)
        x = Tensor(rng.normal(size=(1, 8, 3, 4, 2)))
        fused = dec.logits(x).data
        unfused = dec.head(dec.upfinal(x)).data
        assert fused.shape == unfused.shape == (1, 4, 12, 16, 8)
        np.testing.assert_allclose(fused, unfused, rtol=1e-12, atol=1e-12 * np.abs(unfused).max())

    def test_decoder_gradcheck_reaches_upfinal_and_head(self):
        assert decoder_gradcheck(seed=3) < 1e-4


class TestDecoderLabels:
    """`_Decoder.labels` runs `logits`, the composed transposed conv, on
    blocks of the 1/4-resolution depth planes and argmaxes each block into
    uint8 labels."""

    def test_blocks_are_the_whole_logits(self, monkeypatch):
        # default decoder width on 8x16 planes: three planes a block, and
        # the last plane of 16 joins the block before it
        net = GliomaForgeNet(ModelConfig(**{**SMALL, "decoder_channels": 48}), seed=2)
        dec = net.decoder
        rng = np.random.default_rng(26)
        for p in (dec.upfinal.bias, dec.head.bias):  # zero at init
            p.data = rng.normal(size=p.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(1, 48, 16, 8, 16)).astype(np.float32))
        whole = dec.logits(x).data
        bounds = [0, 3, 6, 9, 12, 16]
        blocks = [dec.logits(Tensor(x.data[:, :, a:b])).data for a, b in zip(bounds, bounds[1:])]
        assert np.concatenate(blocks, axis=2).tobytes() == whole.tobytes()
        calls = []
        tconv = model_module.transpose_conv3d

        def counting(x, *args, **kwargs):
            calls.append(x.shape[2])
            return tconv(x, *args, **kwargs)

        monkeypatch.setattr(model_module, "transpose_conv3d", counting)
        labels = dec.labels(x, (40, 30, 61))
        want = np.argmax(whole, axis=1)[:, :40, :30, :61].astype(np.uint8)
        assert labels.tobytes() == want.tobytes()
        assert calls == [3, 3, 3, 3]  # none past the crop

    def test_argmax_keeps_first_maximum(self, monkeypatch):
        # logits: x's first four channels repeated 4x along each axis; few
        # values, so many voxels tie across classes; a NaN wins its voxel
        def upsampled(x, weight, bias=None, stride=1):
            data = x.data[:, :4]
            for axis in (2, 3, 4):
                data = np.repeat(data, 4, axis=axis)
            return Tensor(data)

        monkeypatch.setattr(model_module, "transpose_conv3d", upsampled)
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, size=(2, 8, 8, 8, 8)).astype(np.float32)
        x[1, 2, 1, 1, 1] = np.nan
        labels = small_net().decoder.labels(Tensor(x), (30, 32, 31))
        whole = upsampled(Tensor(x), None).data
        want = np.argmax(whole, axis=1)[:, :30, :, :31].astype(np.uint8)
        assert labels.dtype == np.uint8 and labels.shape == (2, 30, 32, 31)
        assert labels.tobytes() == want.tobytes()
        assert labels[1, 5, 6, 7] == 2


class TestStemMergeFold:
    """With grad off, stage 1's merge folds the frequency stem into itself:
    one composed conv for the outputs whose window lies inside the grid, the
    stem then the merge on thin slabs for the faces that read the merge's
    zero padding."""

    # (32, 64, 64) gives every face enough outputs that BLAS sums each face's
    # product as it sums the whole grid's; OpenBLAS runs products of at most
    # 1e6 multiply-adds through a separate small-matrix kernel
    @pytest.mark.parametrize("strides", [[4, 2, 2, 2], [2, 2, 2, 4]], ids=["s4", "s2"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_stem_then_merge(self, n, strides):
        net = GliomaForgeNet(ModelConfig(**SMALL, stage_strides=strides), seed=n)
        x = np.random.default_rng(30 + n).normal(size=(n, 4, 32, 64, 64)).astype(np.float32)
        stem_merge_fold_check(net, Tensor(x))

    def test_float64_model(self):
        net = small_net(dtype=np.float64)
        x = np.random.default_rng(31).normal(size=(1, 4, 32, 32, 64))
        stem_merge_fold_check(net, Tensor(x))

    def test_forward_without_grad_uses_it(self):
        net = small_net()
        x = Tensor(np.random.default_rng(32).normal(size=(1, 4, 32, 32, 32)).astype(np.float32))
        with no_grad():
            folded = net(x).data
            stem = net.frequency_stem(x)
            pyramid = net.encode(stem)
            plain = net.decoder(pyramid, net.dual(pyramid[3])).data
        np.testing.assert_allclose(folded, plain, rtol=1e-4, atol=1e-4 * np.abs(plain).max())

    def test_forward_with_grad_is_stem_then_merge(self):
        # the training graph: logits and every gradient as from the plain
        # stem, merge and stages, to the bit
        rng = np.random.default_rng(33)
        x = rng.normal(size=(2, 4, 32, 32, 32)).astype(np.float32)
        upstream = Tensor(rng.normal(size=(2, 4, 32, 32, 32)).astype(np.float32))
        runs = []
        for plain in (False, True):
            net = small_net(seed=5)
            if plain:
                pyramid = net.encode(net.frequency_stem(Tensor(x)))
                logits = net.decoder(pyramid, net.dual(pyramid[3]))
            else:
                logits = net(Tensor(x))
            (logits * upstream).sum().backward()
            runs.append((logits.data, {p.name: p.grad for p in net.parameters()}))
        (got, got_grads), (want, want_grads) = runs
        assert got.tobytes() == want.tobytes()
        assert got_grads.keys() == want_grads.keys()
        for name, grad in want_grads.items():
            assert got_grads[name].tobytes() == grad.tobytes(), name

    def test_no_stem_output_without_grad(self, monkeypatch):
        # with 1 MiB column blocks, a no-grad forward at 64^3 peaks below
        # the 8 MiB of the stem's 8-channel output, which it never builds
        monkeypatch.setattr(conv_module, "_COLUMN_BLOCK_BYTES", 1 << 20)
        net = small_net()
        x = Tensor(np.random.default_rng(34).normal(size=(1, 4, 64, 64, 64)).astype(np.float32))
        stem_bytes = 2 * x.data.nbytes
        with no_grad():
            net(x)  # draws the weights
            _, _, peak = traced(lambda: net(x))
        assert peak < stem_bytes


class TestParameters:
    def test_count_stable(self):
        a = small_net(seed=0)
        b = small_net(seed=1)
        assert a.parameter_count() == b.parameter_count() > 10_000
        names = sorted(a.named_parameters())
        assert names == sorted(b.named_parameters())

    def test_default_count_over_a_million(self):
        assert GliomaForgeNet(seed=0).parameter_count() > 1_000_000

    def test_tokens_roundtrip(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 3, 2, 2, 2)).astype(np.float32)
        tokens = _to_tokens(Tensor(x))
        assert tokens.shape == (2, 8, 3)


def traced(fn):
    """fn()'s result, and the bytes it left allocated and at most allocated."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


class TestMixFFNMemory:
    def test_forward_holds_one_padded_copy(self, monkeypatch):
        # A training forward keeps fc1's arrays, one padded copy and the conv
        # output, then makes GELU's and fc2's; the tap kernel adds one block
        # temporary while it runs. Any copy of the 96 KiB hidden tokens in
        # another layout would not fit.
        monkeypatch.setattr(conv_module, "_DEPTHWISE_BLOCK", 1 << 12)
        grid, channels, hidden = (8, 8, 6), 16, 64
        ffn = _MixFFN(_Store(0, np.float32), "ffn", channels, 4)
        rng = np.random.default_rng(17)
        tokens = Tensor(rng.normal(size=(1, 384, channels)).astype(np.float32), requires_grad=True)
        ffn(tokens, grid)  # draws the weights and imports GELU's erf
        _, _, whole = traced(lambda: ffn(tokens, grid))
        fc1_out, fc1, _ = traced(lambda: ffn.fc1(tokens))
        conv_out = Tensor(fc1_out.data.copy(), requires_grad=True)
        _, _, gelu_fc2 = traced(lambda: ffn.fc2(conv_out.gelu()))
        padded = 10 * 10 * 8 * hidden * 4
        block = 8 * 6 * hidden * 4  # one output depth plane, > 4096 elements
        assert conv_out.data.nbytes == 96 << 10
        assert whole <= fc1 + padded + conv_out.data.nbytes + block + gelu_fc2 + (16 << 10)


    def test_no_grad_forward_holds_output_and_block_buffers(self):
        # Default stage-1 widths at 16x16 planes: a block is 2 output planes
        # of 32 768 hidden values. It holds fc1's output and a padded copy of
        # it, each with the block's halo planes, then the taps' output and
        # GELU's arrays; fc2 writes straight into the output. The graph
        # would hold D planes of each: 4 MiB at D = 32.
        ffn = random_mix_ffn(32, 4, seed=5)
        rng = np.random.default_rng(18)
        extra = {}
        for d in (8, 32):
            grid = (d, 16, 16)
            tokens = Tensor(rng.normal(size=(1, d * 256, 32)).astype(np.float32))
            with no_grad():
                ffn(tokens, grid)  # imports GELU's erf
                out, _, peak = traced(lambda: ffn(tokens, grid))
            extra[d] = peak - out.data.nbytes
        padded_block = 4 * 18 * 18 * 128 * 4
        assert extra[32] <= 3 * padded_block
        assert extra[32] <= extra[8] + (16 << 10)


def _depthwise_tokens(tokens, grid, w, bias):
    """The stride-1 depthwise 3^3 conv on (N, L, C) tokens as one graph op,
    as the Mix-FFN ran it when it was a graph of ops."""
    n, length, c = tokens.shape
    padded = np.pad(tokens.data.reshape(n, *grid, c), ((0, 0),) + ((1, 1),) * 3 + ((0, 0),))
    taps = np.ascontiguousarray(w.data.reshape(c, 27).T)[None]
    out = conv_module._depthwise(padded, taps, 3, 1, grid)
    out += bias.data

    def backward_fn(g):
        dx, dtaps = conv_module._depthwise_grads(
            padded, taps, g.reshape(n, *grid, c), 3, 1, 1, tokens.requires_grad, w.requires_grad
        )
        if dtaps is not None:
            _accumulate(w, dtaps[0].T.reshape(w.shape))
        if dx is not None:
            _accumulate(tokens, dx.reshape(tokens.shape))
        _accumulate(bias, g.sum(axis=(0, 1)))

    return Tensor._from_op(out.reshape(n, length, c), (tokens, w, bias), backward_fn)


def composed_mix_ffn(ffn, tokens, grid):
    """fc1, the depthwise conv, GELU and fc2 as a graph of Tensor ops: the
    reference whose bits the node keeps."""
    hidden = _depthwise_tokens(ffn.fc1(tokens), grid, ffn.dw_weight, ffn.dw_bias)
    return ffn.fc2(hidden.gelu())


def conv3d_mix_ffn(ffn, tokens, grid):
    """The Mix-FFN with its depthwise conv run by conv3d on the permuted
    grid, channels first."""
    hidden = ffn.fc1(tokens)
    conv = conv3d(_to_grid(hidden, grid), ffn.dw_weight, bias=ffn.dw_bias, padding=1,
                  groups=hidden.shape[-1])
    return ffn.fc2(_to_tokens(conv).gelu())


def mix_ffn_grads(ffn, forward, tokens, grid, upstream):
    """forward's output, then the gradients of the tokens and of ffn's six
    parameters under `upstream`."""
    params = [ffn.fc1.weight, ffn.fc1.bias, ffn.dw_weight, ffn.dw_bias, ffn.fc2.weight,
              ffn.fc2.bias]
    for p in params:
        p.zero_grad()
    x = Tensor(tokens, requires_grad=True)
    out = forward(x, grid)
    (out * upstream).sum().backward()
    return [out.data, x.grad] + [p.grad for p in params]


MIX_FFN_OUTPUTS = ["out", "tokens", "fc1.weight", "fc1.bias", "dw.weight", "dw.bias",
                   "fc2.weight", "fc2.bias"]


class TestMixFFNNode:
    """`_MixFFN` is one graph node with a hand-written backward."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "channels, expansion, grid",
        [(8, 2, (4, 8, 8)), (48, 4, (8, 8, 8)), (192, 4, (2, 2, 2))],
        ids=["small-stage1", "default-stage1", "default-stage3"],
    )
    def test_equals_composed_graph(self, n, channels, expansion, grid):
        ffn = random_mix_ffn(channels, expansion, seed=n)
        rng = np.random.default_rng(40 + n)
        tokens = rng.normal(size=(n, math.prod(grid), channels)).astype(np.float32)
        upstream = Tensor(rng.normal(size=tokens.shape).astype(np.float32))
        node = mix_ffn_grads(ffn, ffn, tokens, grid, upstream)
        graph = mix_ffn_grads(
            ffn, lambda x, g: composed_mix_ffn(ffn, x, g), tokens, grid, upstream
        )
        for name, got, want in zip(MIX_FFN_OUTPUTS, node, graph):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize(
        "block", [None, 130, 60], ids=["one-block", "sample-blocks", "plane-blocks"]
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_conv3d_on_the_grid(self, monkeypatch, block, n):
        # 3x5x2 planes of 4 hidden channels hold 40 elements; a block of 130
        # splits the samples, one of 60 the depth planes as well
        if block is not None:
            monkeypatch.setattr(conv_module, "_DEPTHWISE_BLOCK", block)
        grid = (3, 5, 2)
        ffn = random_mix_ffn(2, 2, seed=60 + n)
        rng = np.random.default_rng(60 + n)
        tokens = rng.normal(size=(n, 30, 2)).astype(np.float32)
        upstream = Tensor(rng.normal(size=tokens.shape).astype(np.float32))
        out, dx, _, _, dw, db, _, _ = mix_ffn_grads(ffn, ffn, tokens, grid, upstream)
        ref, ref_dx, _, _, ref_dw, ref_db, _, _ = mix_ffn_grads(
            ffn, lambda x, g: conv3d_mix_ffn(ffn, x, g), tokens, grid, upstream
        )
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-5)
        np.testing.assert_allclose(db, ref_db, rtol=1e-5)

    def test_gradcheck(self):
        assert mix_ffn_gradcheck(seed=3) < 1e-4

    def test_forward_keeps_what_backward_reads(self):
        # A recorded forward holds its output, the zero-padded fc1 output,
        # GELU's input and its CDF, and the (tiny) taps. The graph of ops
        # held three more hidden-sized arrays and fc2's output besides.
        n, grid, channels, hidden = 2, (8, 8, 6), 16, 64
        ffn = random_mix_ffn(channels, 4, seed=7)
        rng = np.random.default_rng(19)
        tokens = Tensor(rng.normal(size=(n, 384, channels)).astype(np.float32))
        ffn(tokens, grid)  # imports GELU's erf
        out, held, _ = traced(lambda: ffn(tokens, grid))
        assert out._backward_fn is not None
        padded = n * 10 * 10 * 8 * hidden * 4
        act = n * 384 * hidden * 4
        assert held <= out.data.nbytes + padded + 2 * act + (16 << 10)


class TestDeferredDraw:
    @pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_eager_draw(self, monkeypatch, small, dtype):
        config = ModelConfig(**SMALL) if small else None
        want = eager_params(monkeypatch, config, 7, dtype)
        got = GliomaForgeNet(config, seed=7, dtype=dtype).named_parameters()
        assert list(got) == list(want)
        for name, p in got.items():
            assert p.dtype == want[name].dtype, name
            assert p.data.tobytes() == want[name].tobytes(), name

    def test_load_draws_nothing(self, tmp_path):
        path = tmp_path / "net.ckpt"
        small_net(seed=3).save(path)
        net = small_net(seed=11)
        net.load(path)
        assert_fresh_generator(net, 11)
        saved = load_checkpoint(path)
        for name, p in net.named_parameters().items():
            np.testing.assert_array_equal(p.data, saved[name])
        assert_fresh_generator(net, 11)

    def test_value_set_before_draw_survives(self, monkeypatch):
        want = eager_params(monkeypatch, ModelConfig(**SMALL), 5, np.float32)
        net = small_net(seed=5)
        fc2 = net.stages[1].blocks[0].ffn.fc2.weight
        fc2.data = np.zeros(fc2.shape, dtype=fc2.dtype)
        got = {name: p.data for name, p in net.named_parameters().items()}
        np.testing.assert_array_equal(got.pop(fc2.name), 0.0)
        for name, values in got.items():
            assert values.tobytes() == want[name].tobytes(), name

    def test_shape_and_size_do_not_draw(self):
        net = small_net(seed=4)
        weight = net.stages[0].blocks[0].attn.q.weight
        assert weight.shape == (8, 8) and weight.size == 64 and weight.ndim == 2
        assert weight.dtype == np.float32
        assert net.parameter_count() > 10_000
        net.zero_grad()
        assert_fresh_generator(net, 4)
        assert np.isfinite(weight.data).all()
        assert net._store.rng.bit_generator.state != np.random.default_rng(4).bit_generator.state


class TestCheckpointIO:
    def test_roundtrip_same_logits(self, tmp_path):
        net = small_net(seed=0)
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(1, 4, 32, 32, 32)).astype(np.float32))
        with no_grad():
            before = net(x).data
        path = tmp_path / "net.ckpt"
        net.save(path)
        other = small_net(seed=99)  # different init
        other.load(path)
        with no_grad():
            after = other(x).data
        np.testing.assert_array_equal(before, after)

    def test_name_mismatch(self, tmp_path):
        net = small_net()
        path = tmp_path / "net.ckpt"
        net.save(path)
        wrong = GliomaForgeNet(ModelConfig(**{**SMALL, "stage_depths": [2, 1, 1, 1]}))
        with pytest.raises(CheckpointError):
            wrong.load(path)

    def test_shape_mismatch(self, tmp_path):
        net = small_net()
        arrays = {name: p.data for name, p in net.named_parameters().items()}
        arrays["decoder.head.bias"] = np.zeros(7, dtype=np.float32)
        from gliomaforge.autodiff import save_checkpoint

        path = tmp_path / "net.ckpt"
        save_checkpoint(path, arrays)
        with pytest.raises(CheckpointError):
            net.load(path)

    def test_failed_load_changes_no_weight(self, tmp_path):
        # the bad record is the last one, so every other record would be
        # assigned before its shape is found wrong
        arrays = {name: p.data for name, p in small_net(seed=0).named_parameters().items()}
        arrays["decoder.head.bias"] = np.zeros(7, dtype=np.float32)
        from gliomaforge.autodiff import save_checkpoint

        path = tmp_path / "net.ckpt"
        save_checkpoint(path, arrays)
        net = small_net(seed=2)
        before = {name: p.data.tobytes() for name, p in net.named_parameters().items()}
        with pytest.raises(CheckpointError, match="decoder.head.bias"):
            net.load(path)
        after = {name: p.data.tobytes() for name, p in net.named_parameters().items()}
        assert after == before

    def test_last_payload_one_byte_short(self, tmp_path):
        path = tmp_path / "net.ckpt"
        small_net().save(path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
