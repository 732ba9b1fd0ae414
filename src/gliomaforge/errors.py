"""Exception hierarchy shared across the toolkit.

Everything raised on bad data or bad usage derives from GliomaForgeError so
callers (and the CLI) can distinguish toolkit failures from programming bugs.
"""


class GliomaForgeError(Exception):
    """Base class for all toolkit errors."""


class HeaderError(GliomaForgeError):
    """Malformed or corrupt NIfTI header (bad magic, nonpositive dims, ...)."""


class UnsupportedDataTypeError(HeaderError):
    """Valid NIfTI header but a voxel datatype outside the supported set."""


class TruncatedDataError(GliomaForgeError):
    """File ends before the voxel payload the header promises."""


class AlignmentError(GliomaForgeError):
    """Volumes of one case disagree on dims or spacing."""


class LabelError(GliomaForgeError):
    """Segmentation mask contains values outside the allowed label set."""


class EmptyForegroundError(GliomaForgeError):
    """An operation that needs foreground voxels got an empty mask."""


class DegenerateInputError(GliomaForgeError):
    """Input is constant (zero variance) where variation is required."""


class ConfigError(GliomaForgeError):
    """Invalid configuration value (bad quantile count, bin width, ...)."""


class ShapeError(GliomaForgeError):
    """Tensor/volume shapes incompatible with the requested operation."""


class GraphReleasedError(GliomaForgeError):
    """backward() reached a graph that an earlier backward() already used."""


class InsufficientDataError(GliomaForgeError):
    """Too few samples for the requested fit (n < 2, n < k, ...)."""


class PairingError(GliomaForgeError):
    """Prediction and ground-truth case ids cannot be matched up."""


class CheckpointError(GliomaForgeError):
    """Checkpoint file is malformed or incompatible with the model config."""


class TrainingDivergedError(GliomaForgeError):
    """Loss became non-finite during optimization."""

    def __init__(self, message, epoch=None, lr=None):
        super().__init__(message)
        self.epoch = epoch
        self.lr = lr
