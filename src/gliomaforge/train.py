"""Composite Dice + cross-entropy training with AdamW and a cosine schedule.

The loss treats the 4 labels as mutually exclusive softmax classes; the
Dice term averages over the 3 foreground classes only, with epsilon
smoothing so an empty-vs-empty class contributes zero. Augmentation and
cropping draw from an explicit generator so a fixed seed reproduces the
whole run bit for bit.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad, softmax
from .errors import ConfigError, LabelError, TrainingDivergedError
from .harmonize import zscore_normalize
from .model import NETWORK_STRIDE, GliomaForgeNet
from .nifti import MODALITIES, MultiModalCase

NUM_CLASSES = 4
FOREGROUND_CLASSES = (1, 2, 3)
DICE_EPS = 1e-5


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 2
    crop_size: int = 64
    epochs_pretrain: int = 75
    epochs_finetune: int = 25
    patience: int = 20
    seed: int = 42
    flip_prob: float = 0.5
    rotation_degrees: float = 10.0
    scale_min: float = 0.9
    scale_max: float = 1.1

    def __post_init__(self):
        if min(self.lr, self.batch_size, self.crop_size) <= 0:
            raise ConfigError("lr, batch_size and crop_size must be positive")
        if min(self.epochs_pretrain, self.epochs_finetune) < 1:
            raise ConfigError(
                f"epochs_pretrain {self.epochs_pretrain} and epochs_finetune "
                f"{self.epochs_finetune} must be at least 1"
            )
        if self.weight_decay < 0 or self.patience < 0:
            raise ConfigError("weight_decay and patience must be non-negative")
        if self.crop_size % NETWORK_STRIDE:
            raise ConfigError(f"crop_size {self.crop_size} must be divisible by {NETWORK_STRIDE}")
        if not 0.0 < self.scale_min <= self.scale_max:
            raise ConfigError("scale range must satisfy 0 < min <= max")


@dataclass
class TrainingCase:
    """Preprocessed training sample: stacked modalities + label grid."""

    case_id: str
    images: np.ndarray  # (4, D, H, W) float32
    label: np.ndarray  # (D, H, W) uint8

    def __post_init__(self):
        if self.images.shape[0] != 4 or self.images.shape[1:] != self.label.shape:
            raise ConfigError(
                f"{self.case_id}: images {self.images.shape} vs label {self.label.shape}"
            )


def training_case(case: MultiModalCase) -> TrainingCase:
    """Z-score each modality over its nonzero voxels into its channel."""
    if case.label is None:
        raise LabelError(f"case {case.case_id} has no label volume")
    images = np.empty((len(MODALITIES), *case.label.dims), dtype=np.float32)
    for channel, mod in zip(images, MODALITIES):
        zscore_normalize(case.modalities[mod], out=channel)
    return TrainingCase(case.case_id, images, case.label.labels.astype(np.uint8))


# -- losses ----------------------------------------------------------------


def one_hot(labels: np.ndarray, num_classes: int = NUM_CLASSES) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise LabelError(f"labels outside [0, {num_classes})")
    flat = np.eye(num_classes, dtype=np.float32)[labels.reshape(-1)]
    return flat.reshape(labels.shape + (num_classes,))


def _onehot_nchw(labels: np.ndarray, num_classes: int = NUM_CLASSES) -> np.ndarray:
    """(N, D, H, W) int labels -> (N, num_classes, D, H, W) float one-hot."""
    return np.moveaxis(one_hot(labels, num_classes), -1, 1)


def dice_loss(probs: Tensor, target: Tensor) -> Tensor:
    """Soft Dice over foreground classes, averaged over classes and batch."""
    if probs.shape != target.shape:
        raise ConfigError(f"probs {probs.shape} vs target {target.shape}")
    spatial = tuple(range(2, probs.ndim))
    p, g = probs[:, 1:], target[:, 1:]  # the foreground classes, in order
    inter = (p * g).sum(axis=spatial)
    denom = p.sum(axis=spatial) + g.sum(axis=spatial)
    terms = 1.0 - (2.0 * inter + DICE_EPS) / (denom + DICE_EPS)  # (N, classes)
    total = terms[:, 0]
    for i in range(1, terms.shape[1]):  # summed in class order, as one term each
        total = total + terms[:, i]
    return (total * (1.0 / terms.shape[1])).mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean voxelwise negative log softmax probability of the true class."""
    return _cross_entropy(logits, _onehot_nchw(labels, logits.shape[1]))


def _cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """`cross_entropy` against the labels' one-hot `target` (`_onehot_nchw`)."""
    if logits.shape != target.shape:
        raise ConfigError(f"logits {logits.shape} vs one-hot labels {target.shape}")
    shift = Tensor(np.max(logits.data, axis=1, keepdims=True))
    shifted = logits - shift
    log_norm = shifted.exp().sum(axis=1, keepdims=True).log()
    picked = ((shifted - log_norm) * Tensor(target)).sum(axis=1)
    return -picked.mean()


def composite_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    target = _onehot_nchw(labels, logits.shape[1])  # one grid serves both terms
    probs = softmax(logits, axis=1)
    return dice_loss(probs, Tensor(target)) + _cross_entropy(logits, target)


# -- optimizer and schedule ------------------------------------------------


# `AdamW.step` updates this many elements of a parameter at a time
_ADAMW_CHUNK = 1 << 15


class AdamW:
    """Adam with decoupled weight decay applied to the pre-step parameters."""

    def __init__(self, params, lr=1e-4, weight_decay=1e-5, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        scratch = {}
        # the ufuncs of the textbook update, in its order, in place, a chunk
        # at a time through two reused scratch arrays: each array holds the
        # same bits as m = b1*m + (1-b1)*g ... theta = theta - lr*update,
        # and no parameter-sized temporary is made
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if p.dtype not in scratch:
                scratch[p.dtype] = [np.empty(_ADAMW_CHUNK, p.dtype) for _ in range(2)]
            # the gradient is only read, so it may be flattened by a copy
            flat = [_flat(p.data), g.reshape(-1), _flat(m), _flat(v)]
            for start in range(0, p.data.size, _ADAMW_CHUNK):
                pc, gc, mc, vc = (x[start : start + _ADAMW_CHUNK] for x in flat)
                a, b = (s[: pc.size] for s in scratch[p.dtype])
                mc *= b1
                mc += np.multiply(1.0 - b1, gc, out=a)
                vc *= b2
                np.multiply(gc, gc, out=a)
                vc += np.multiply(1.0 - b2, a, out=a)
                update = np.divide(mc, 1.0 - b1**t, out=a)
                denom = np.divide(vc, 1.0 - b2**t, out=b)
                np.sqrt(denom, out=denom)
                denom += self.eps
                update /= denom
                update += np.multiply(self.weight_decay, pc, out=b)
                update *= lr
                pc -= update


def _flat(a: np.ndarray) -> np.ndarray:
    """A 1-d view of `a`, which `AdamW.step` updates in place through it."""
    if not a.flags.c_contiguous:
        raise ValueError(f"AdamW updates C-contiguous arrays in place, got strides {a.strides}")
    return a.reshape(-1)


def cosine_lr(epoch: int, total: int, lr0: float) -> float:
    if total <= 0:
        raise ConfigError("total epochs must be positive")
    t = min(max(epoch, 0), total)
    return max(0.0, 0.5 * lr0 * (1.0 + math.cos(math.pi * t / total)))


# -- augmentation and cropping ---------------------------------------------


@dataclass(frozen=True)
class AugmentParams:
    flips: tuple[bool, bool, bool]
    axis: int  # rotation axis index
    angle_degrees: float
    scale: float


def sample_augmentation(rng: np.random.Generator, config: TrainConfig) -> AugmentParams:
    flips = tuple(bool(rng.random() < config.flip_prob) for _ in range(3))
    axis = int(rng.integers(3))
    angle = float(rng.uniform(-config.rotation_degrees, config.rotation_degrees))
    scale = float(rng.uniform(config.scale_min, config.scale_max))
    return AugmentParams(flips=flips, axis=axis, angle_degrees=angle, scale=scale)


def _rotation_matrix(axis: int, angle_degrees: float) -> np.ndarray:
    theta = math.radians(angle_degrees)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.eye(3)
    a, b = [i for i in range(3) if i != axis]
    rot[a, a] = c
    rot[a, b] = -s
    rot[b, a] = s
    rot[b, b] = c
    return rot


def apply_augmentation(
    images: np.ndarray, label: np.ndarray, params: AugmentParams
) -> tuple[np.ndarray, np.ndarray]:
    """Flip, then rotate/scale about the volume center.

    Images resample trilinearly, labels nearest-neighbor, so label values
    stay inside the original label set.
    """
    from scipy.ndimage import affine_transform

    flip_axes = tuple(i for i, f in enumerate(params.flips) if f)
    if flip_axes:
        images = np.flip(images, axis=tuple(a + 1 for a in flip_axes))
        label = np.flip(label, axis=flip_axes)
    if params.angle_degrees == 0.0 and params.scale == 1.0:
        return np.ascontiguousarray(images), np.ascontiguousarray(label)
    # output[o] = input[A o + offset] with A the inverse of scale*rotation
    matrix = _rotation_matrix(params.axis, params.angle_degrees).T / params.scale
    center = (np.asarray(label.shape) - 1) / 2.0
    offset = center - matrix @ center
    out_images = np.stack(
        [
            affine_transform(ch, matrix, offset=offset, order=1, mode="constant", cval=0.0)
            for ch in images
        ]
    ).astype(np.float32)
    out_label = affine_transform(
        label, matrix, offset=offset, order=0, mode="constant", cval=0
    ).astype(label.dtype)
    return out_images, out_label


CROP_RETRIES = 10


def random_crop(
    images: np.ndarray, label: np.ndarray, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crop origin, retried so most draws contain tumor voxels."""
    pads = [(0, max(0, size - s)) for s in label.shape]
    if any(p[1] for p in pads):
        images = np.pad(images, [(0, 0)] + pads)
        label = np.pad(label, pads)
    dims = label.shape
    has_fg = bool(np.any(label > 0))
    crop_img = crop_lab = None
    for _ in range(CROP_RETRIES):
        origin = [int(rng.integers(0, d - size + 1)) for d in dims]
        sl = tuple(slice(o, o + size) for o in origin)
        crop_img = images[(slice(None),) + sl]
        crop_lab = label[sl]
        if not has_fg or np.any(crop_lab > 0):
            break
    return np.ascontiguousarray(crop_img), np.ascontiguousarray(crop_lab)


# -- fit loop --------------------------------------------------------------


@dataclass
class FitResult:
    best_params: dict[str, np.ndarray]
    best_val_dice: float
    best_epoch: int
    log: list[dict] = field(default_factory=list)


def mean_foreground_dice(pred: np.ndarray, truth: np.ndarray) -> float:
    """Hard Dice averaged over classes 1..3; empty-vs-empty counts as 1."""
    scores = []
    for c in FOREGROUND_CLASSES:
        p = pred == c
        g = truth == c
        union = int(p.sum()) + int(g.sum())
        scores.append(1.0 if union == 0 else 2.0 * int((p & g).sum()) / union)
    return float(np.mean(scores))


def padded_dims(dims) -> tuple[int, ...]:
    """`dims` rounded up to a multiple of `NETWORK_STRIDE`."""
    return tuple(s + (-s) % NETWORK_STRIDE for s in dims)


def predict_labels(model: GliomaForgeNet, images, dims=None) -> np.ndarray:
    """uint8 labels of one case's C x D x H x W `images`: zero-padded up to
    the stride multiple (used as they are when they need no padding), a
    forward with grad off, the first-max argmax over classes, cropped to
    `dims` (the grid of `images`, unless they come zero-padded already).

    No full-grid array exists beside the input, and the input lives only
    until stage 1 has read it, unless a caller holds it: `images` is an
    array, which its caller keeps unchanged, or a one-item list holding
    one, which this empties, handing the array over. A padded copy made
    here is handed over too.
    """
    slot = images if isinstance(images, list) else [images]
    images = slot.pop()
    grid = images.shape[1:]
    pads = [(0, p - s) for s, p in zip(grid, padded_dims(grid))]
    if any(after for _, after in pads):
        images = np.pad(images, [(0, 0)] + pads)
    slot.append(Tensor(images[None]))
    del images
    with no_grad():
        return model(slot, grid if dims is None else dims)[0]


def validation_dice(model: GliomaForgeNet, cases: list[TrainingCase]) -> float:
    if not cases:
        return 0.0
    return float(
        np.mean([mean_foreground_dice(predict_labels(model, c.images), c.label) for c in cases])
    )


def fit(
    model: GliomaForgeNet,
    train_cases: list[TrainingCase],
    val_cases: list[TrainingCase],
    config: TrainConfig,
    epochs: int,
) -> FitResult:
    """Seeded epoch loop: crop/augment batches, AdamW with cosine lr,
    keep the best validation checkpoint, stop early on patience."""
    if not train_cases:
        raise ConfigError("fit requires at least one training case")
    if epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {epochs}")
    rng = np.random.default_rng(config.seed)
    optimizer = AdamW(
        model.parameters(),
        lr=config.lr,
        weight_decay=config.weight_decay,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
    )
    best = FitResult(
        best_params={name: p.data.copy() for name, p in model.named_parameters().items()},
        best_val_dice=-1.0,
        best_epoch=-1,
    )
    stale = 0
    # gradients are zeroed after each step rather than before the next, so
    # validation and the next batch's forward run without the last step's
    model.zero_grad()
    for epoch in range(epochs):
        lr = cosine_lr(epoch, epochs, config.lr)
        order = rng.permutation(len(train_cases))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_cases[i] for i in order[start : start + config.batch_size]]
            images, labels = [], []
            for case in batch:
                img, lab = random_crop(case.images, case.label, config.crop_size, rng)
                img, lab = apply_augmentation(img, lab, sample_augmentation(rng, config))
                images.append(img)
                labels.append(lab)
            x = Tensor(np.stack(images))
            y = np.stack(labels)
            loss = composite_loss(model(x), y)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss {value} at epoch {epoch}", epoch=epoch, lr=lr
                )
            loss.backward()
            optimizer.step(lr=lr)
            model.zero_grad()
            losses.append(value)
        val = validation_dice(model, val_cases)
        best.log.append(
            {
                "epoch": epoch,
                "lr": lr,
                "train_loss": float(np.mean(losses)),
                "val_dice": val,
            }
        )
        if val > best.best_val_dice:
            best.best_val_dice = val
            best.best_epoch = epoch
            for name, p in model.named_parameters().items():
                np.copyto(best.best_params[name], p.data)
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    return best


def write_fit_log(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "lr", "train_loss", "val_dice"))
        for row in rows:
            writer.writerow(
                (row["epoch"], repr(row["lr"]), repr(row["train_loss"]), repr(row["val_dice"]))
            )
