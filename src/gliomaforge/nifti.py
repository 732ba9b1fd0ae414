"""Minimal NIfTI-1 reader/writer and multi-modal case assembly.

Supports the single-file ``.nii`` layout (magic ``n+1\\0`` or ``ni1\\0``,
348-byte header, voxel payload at ``vox_offset``) plus gzip-compressed
``.nii.gz``. Only uint8 / int16 / float32 voxels are accepted; anything else
is rejected loudly. Written files are always float32 with slope 1 / inter 0,
the canonical internal form. Voxel data is stored on disk in the standard
NIfTI order (first axis fastest).

Files are read and written a block of last-axis planes (`_BLOCK_BYTES`)
at a time. A read decodes as it reads: a ``.nii`` straight into one
staging block, a ``.nii.gz`` through an inflater fed and drained
`_INFLATE_CHUNK` bytes at a time; each block is then converted into the
grid. A write transposes one block at a time and hands it to the file or
to deflate. So loading or saving a volume holds the grid, one block and
one zlib chunk, and no whole-file buffer: on a 240x240x155 float32
``.nii.gz`` (a 35.2 MiB grid), tracemalloc peaks at 38.4 MiB to load it
and 4.4 MiB to save it, where whole-file buffers took 68.1 and 56.4 MiB.

Cases follow the naming convention ``<case_id>-{t1,t1ce,t2,flair,seg}.nii``.
`case_paths` finds the files of many cases, `iter_case_files` streams them
one at a time and `load_case` collects one case from the same reader;
`read_ahead` runs such a stream one item ahead on a background thread.
Errors raised while reading or checking a case file name the file.
"""

from __future__ import annotations

import io
import os
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    GliomaForgeError,
    HeaderError,
    LabelError,
    PairingError,
    TruncatedDataError,
    UnsupportedDataTypeError,
)

HEADER_SIZE = 348
DEFAULT_VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"

MODALITIES = ("t1", "t1ce", "t2", "flair")
# The files of one case, in the order they are read; the seg is optional.
CASE_FILES = (*MODALITIES, "seg")
VALID_LABELS = (0, 1, 2, 3)

# NIfTI datatype codes we accept.
_CODE_TO_DTYPE = {2: np.uint8, 4: np.int16, 16: np.float32}
_DTYPE_TO_CODE = {np.dtype(np.uint8): 2, np.dtype(np.int16): 4, np.dtype(np.float32): 16}
_BITPIX = {2: 8, 4: 16, 16: 32}
# `_transpose_copy` copies blocks of this many indices of the first two
# axes at a time, the last axis whole, so a block's reads and writes stay
# in cache
_TRANSPOSE_BLOCK = 32

# Payloads are read and written this many bytes of last-axis planes at a
# time (at least one plane): 18 planes of a 240x240 float32 grid.
_BLOCK_BYTES = 1 << 22

# Bytes of input that `_GzipStream` and `_write_file` hand zlib per call,
# and of output that `_GzipStream` takes: below malloc's mmap threshold, so
# each call's output buffer is reused memory, and small beside a payload.
_INFLATE_CHUNK = 1 << 16

# Full NIfTI-1 header layout; offsets are fixed by the standard.
_HEADER_FIELDS = [
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", (8,)),
    ("intent_p1", "f4"),
    ("intent_p2", "f4"),
    ("intent_p3", "f4"),
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", (8,)),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern_b", "f4"),
    ("quatern_c", "f4"),
    ("quatern_d", "f4"),
    ("qoffset_x", "f4"),
    ("qoffset_y", "f4"),
    ("qoffset_z", "f4"),
    ("srow_x", "f4", (4,)),
    ("srow_y", "f4", (4,)),
    ("srow_z", "f4", (4,)),
    ("intent_name", "S16"),
    ("magic", "S4"),
]


def _header_dtype(byte_order: str) -> np.dtype:
    return np.dtype([(name, byte_order + fmt, *rest) for name, fmt, *rest in _HEADER_FIELDS])


@dataclass
class VolumeHeader:
    """Decoded subset of a NIfTI-1 header."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    datatype: str = "float32"
    scl_slope: float = 1.0
    scl_inter: float = 0.0
    byte_order: str = "<"
    vox_offset: int = DEFAULT_VOX_OFFSET

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) < 1 for d in self.dims):
            raise HeaderError(f"dims must be 3 positive voxel counts, got {self.dims}")
        if any(s <= 0 for s in self.spacing):
            raise HeaderError(f"spacing must be positive, got {self.spacing}")
        if self.datatype not in ("uint8", "int16", "float32"):
            raise UnsupportedDataTypeError(f"unsupported datatype {self.datatype!r}")
        if self.vox_offset < HEADER_SIZE + 4:
            raise HeaderError(f"vox_offset {self.vox_offset} < {HEADER_SIZE + 4}")

    @property
    def voxel_count(self) -> int:
        return int(np.prod(self.dims))

    @property
    def voxel_volume(self) -> float:
        """Volume of one voxel in mm^3."""
        return float(np.prod(self.spacing))


@dataclass
class Volume:
    """One modality's scalar grid plus its header metadata."""

    header: VolumeHeader
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.shape != tuple(self.header.dims):
            raise AlignmentError(
                f"data shape {self.data.shape} != header dims {self.header.dims}"
            )

    @classmethod
    def from_array(cls, data: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> "Volume":
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 3:
            raise AlignmentError(f"expected a 3-D array, got shape {data.shape}")
        hdr = VolumeHeader(dims=data.shape, spacing=tuple(float(s) for s in spacing))
        return cls(header=hdr, data=data)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(self.header.dims)

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(self.header.spacing)


@dataclass
class SegmentationMask:
    """Integer label grid over {0=BG, 1=NCR/NET, 2=ED, 3=ET}."""

    labels: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 3:
            raise AlignmentError(f"expected a 3-D label grid, got shape {self.labels.shape}")
        if self.labels.dtype.kind in "iu" and self.labels.size:
            # VALID_LABELS is the range 0..3, so two reductions decide membership
            valid = self.labels.min() >= 0 and self.labels.max() <= VALID_LABELS[-1]
        else:
            valid = np.isin(self.labels, VALID_LABELS).all()
        if not valid:
            bad = sorted(set(np.unique(self.labels).tolist()) - set(VALID_LABELS))
            raise LabelError(f"mask contains labels outside {{0,1,2,3}}: {bad}")
        self.labels = self.labels.astype(np.uint8)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape


def _check_aligned(case_id: str, grids: dict, label: "SegmentationMask | None") -> None:
    """Raise AlignmentError unless every grid (a Volume or a VolumeHeader)
    shares one dims and one spacing, and the label, if any, those dims."""
    dims = {m: tuple(g.dims) for m, g in grids.items()}
    spacings = {m: tuple(g.spacing) for m, g in grids.items()}
    if len(set(dims.values())) != 1:
        raise AlignmentError(f"case {case_id}: modality dims differ: {dims}")
    if len(set(spacings.values())) != 1:
        raise AlignmentError(f"case {case_id}: modality spacings differ: {spacings}")
    image_dims = next(iter(dims.values()))
    if label is not None and label.dims != image_dims:
        raise AlignmentError(
            f"case {case_id}: label dims {label.dims} != image dims {image_dims}"
        )


@dataclass
class MultiModalCase:
    """Aligned T1/T1CE/T2/FLAIR volumes (+ optional label mask) for one subject.

    A case holds all four modalities, except one from
    `load_case(..., decode=...)`, which holds only the decoded ones.
    """

    case_id: str
    modalities: dict[str, Volume] = field(default_factory=dict)
    label: SegmentationMask | None = None

    def __post_init__(self):
        if not self.modalities or not set(self.modalities) <= set(MODALITIES):
            raise AlignmentError(
                f"case {self.case_id}: modalities {sorted(self.modalities)} are not "
                f"one or more of {list(MODALITIES)}"
            )
        _check_aligned(self.case_id, self.modalities, self.label)

    @property
    def dims(self) -> tuple[int, int, int]:
        return next(iter(self.modalities.values())).dims

    @property
    def spacing(self) -> tuple[float, float, float]:
        return next(iter(self.modalities.values())).spacing


def parse_header(buf: bytes) -> VolumeHeader:
    """Decode a 348-byte NIfTI-1 header, detecting endianness from sizeof_hdr."""
    if len(buf) < HEADER_SIZE:
        raise HeaderError(f"header needs {HEADER_SIZE} bytes, got {len(buf)}")
    raw = None
    byte_order = "<"
    for order in ("<", ">"):
        candidate = np.frombuffer(buf[:HEADER_SIZE], dtype=_header_dtype(order))[0]
        if int(candidate["sizeof_hdr"]) == HEADER_SIZE:
            raw, byte_order = candidate, order
            break
    if raw is None:
        raise HeaderError("sizeof_hdr != 348 under either byte order; not a NIfTI-1 file")
    magic = bytes(raw["magic"]).ljust(4, b"\x00")  # numpy strips trailing NULs
    if magic not in (MAGIC_SINGLE, MAGIC_PAIR):
        raise HeaderError(f"bad magic {magic!r}; expected {MAGIC_SINGLE!r} or {MAGIC_PAIR!r}")
    code = int(raw["datatype"])
    if code not in _CODE_TO_DTYPE:
        raise UnsupportedDataTypeError(
            f"datatype code {code} unsupported; only uint8(2)/int16(4)/float32(16)"
        )
    ndim = int(raw["dim"][0])
    if ndim < 3:
        raise HeaderError(f"need at least 3 spatial dims, header declares {ndim}")
    if any(int(d) > 1 for d in raw["dim"][4 : 1 + ndim]):
        raise HeaderError(f"only 3-D volumes supported, dim field is {list(raw['dim'])}")
    slope = float(raw["scl_slope"])
    # VolumeHeader checks the dims and spacing
    return VolumeHeader(
        dims=tuple(int(d) for d in raw["dim"][1:4]),
        spacing=tuple(float(s) for s in raw["pixdim"][1:4]),
        datatype=np.dtype(_CODE_TO_DTYPE[code]).name,
        scl_slope=1.0 if slope == 0.0 else slope,
        scl_inter=float(raw["scl_inter"]),
        byte_order=byte_order,
        vox_offset=max(int(raw["vox_offset"]), HEADER_SIZE + 4),
    )


def _check_length(header: VolumeHeader, length: int) -> None:
    """Raise TruncatedDataError unless a file of `length` bytes holds the
    whole payload `header` declares."""
    nbytes = header.voxel_count * np.dtype(header.datatype).itemsize
    got = max(0, min(length - header.vox_offset, nbytes))
    if got < nbytes:
        raise TruncatedDataError(
            f"payload truncated: need {nbytes} bytes at offset {header.vox_offset}, got {got}"
        )


def _block_planes(dims, itemsize: int) -> int:
    """Last-axis planes in one payload block: `_BLOCK_BYTES` of them, at least one."""
    return max(1, min(dims[2], _BLOCK_BYTES // (dims[0] * dims[1] * itemsize)))


def _transpose_copy(view: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Copy the 3-d `view`, whose first axis is fastest in memory, into
    `out` (by default a new C-order array of its dtype), converting to
    `out`'s dtype; return `out`. `view` is a payload block read in NIfTI
    order, or a block of a C-order grid's ``.T``.

    numpy's own copy walks `out` in order, so each read lands a whole
    plane away from the last. Copying `_TRANSPOSE_BLOCK`-square blocks of
    the first two axes reuses each cache line it reads: a block of planes
    at a time, a 240x240x155 float32 grid decoded from an in-memory file
    in 45 ms instead of 49-51 ms, and encoded in 25 ms instead of 52-54 ms,
    on a 2-vCPU Xeon.
    """
    if out is None:
        out = np.empty(view.shape, dtype=view.dtype)
    step = _TRANSPOSE_BLOCK
    for i in range(0, view.shape[0], step):
        for j in range(0, view.shape[1], step):
            out[i : i + step, j : j + step] = view[i : i + step, j : j + step]
    return out


def _is_scaled(header: VolumeHeader) -> bool:
    return header.scl_slope != 1.0 or header.scl_inter != 0.0


def _read_grid(stream, keep_uint8: bool = False) -> tuple[VolumeHeader, np.ndarray]:
    """The header of the NIfTI-1 file in the binary `stream` and its voxels
    as a C-order float32 grid, scaled by its slope and intercept; an
    unscaled uint8 payload stays uint8 if `keep_uint8`.

    The payload is read a block of last-axis planes at a time into one
    staging array in the file's dtype and byte order, and each block is
    converted into the grid by `_transpose_copy`: the grid, one block and
    what `stream` buffers are all this holds.
    """
    header = parse_header(stream.read(HEADER_SIZE))
    voxel = np.dtype(header.datatype).newbyteorder(header.byte_order)
    keep = keep_uint8 and header.datatype == "uint8" and not _is_scaled(header)
    grid = np.empty(header.dims, dtype=np.uint8 if keep else np.float32)
    x, y, z = header.dims
    staging = np.empty((_block_planes(header.dims, voxel.itemsize), y, x), dtype=voxel)
    buf = memoryview(staging.reshape(-1).view(np.uint8))
    length = HEADER_SIZE + _skip(stream, header.vox_offset - HEADER_SIZE)
    for k in range(0, z, len(staging)):
        block = staging[: z - k]
        got = stream.readinto(buf[: block.nbytes])
        if got < block.nbytes:  # the stream ended inside the payload
            _check_length(header, length + got)
        length += got
        _transpose_copy(block.T, grid[:, :, k : k + len(block)])
    if _is_scaled(header):
        grid *= np.float32(header.scl_slope)
        grid += np.float32(header.scl_inter)
    return header, grid


def _read_volume(stream) -> Volume:
    header, data = _read_grid(stream)
    return Volume(header=VolumeHeader(dims=header.dims, spacing=header.spacing), data=data)


def _read_mask(stream, remap_label_4: bool) -> SegmentationMask:
    # uint8 labels are integers already: they are copied out as they are
    header, labels = _read_grid(stream, keep_uint8=True)
    if labels.dtype != np.uint8:
        rounded = np.rint(labels)
        if not np.array_equal(labels, rounded):
            raise LabelError("segmentation contains non-integer values")
        labels = rounded.astype(np.int64)
    if remap_label_4:
        labels[labels == 4] = 3
    # SegmentationMask validates before its uint8 cast, so 259 or -1 cannot wrap
    return SegmentationMask(labels=labels, spacing=header.spacing)


def read_volume(buf: bytes) -> Volume:
    """Decode a full single-file NIfTI-1 buffer into a float32 Volume."""
    return _read_volume(io.BytesIO(buf))


def read_mask(buf: bytes, remap_label_4: bool = True) -> SegmentationMask:
    """Decode a segmentation file, optionally remapping legacy label 4 -> 3."""
    return _read_mask(io.BytesIO(buf), remap_label_4)


def _header_bytes(dims, spacing, datatype_code: int) -> bytes:
    """The canonical header of a file of `dims`, padded to the payload offset."""
    hdr = np.zeros(1, dtype=_header_dtype("<"))[0]
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"][:] = [3, *dims, 1, 1, 1, 1]
    hdr["datatype"] = datatype_code
    hdr["bitpix"] = _BITPIX[datatype_code]
    hdr["pixdim"][:] = [1.0, *spacing, 0.0, 0.0, 0.0, 0.0]
    hdr["vox_offset"] = float(DEFAULT_VOX_OFFSET)
    hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2  # millimetres
    hdr["magic"] = MAGIC_SINGLE
    return hdr.tobytes() + b"\x00" * (DEFAULT_VOX_OFFSET - HEADER_SIZE)


def _encode(data: np.ndarray, spacing, datatype_code: int):
    """Yield the chunks of a file holding `data`: its header, then its
    payload a block of last-axis planes at a time.

    Each block is a new C-order array of `data`'s dtype whose bytes are
    those planes in NIfTI order (first axis fastest), so a writer that
    drops each chunk once written holds one block, not a copy of `data`.
    """
    yield _header_bytes(data.shape, spacing, datatype_code)
    planes = _block_planes(data.shape, data.itemsize)
    for k in range(0, data.shape[2], planes):
        yield _transpose_copy(data[:, :, k : k + planes].T)


def _volume_chunks(volume: Volume):
    """The `_encode` chunks of `volume` as canonical float32, checked finite
    before the first is made."""
    data = volume.data
    # NaN and the infinities surface in the extremes: no full-grid mask
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ValueError("volume contains non-finite values; refusing to write")
    return _encode(data.astype("<f4", copy=False), volume.spacing,
                   _DTYPE_TO_CODE[np.dtype(np.float32)])


def _mask_chunks(mask: SegmentationMask):
    return _encode(mask.labels.astype(np.uint8, copy=False), mask.spacing,
                   _DTYPE_TO_CODE[np.dtype(np.uint8)])


def write_volume(volume: Volume) -> bytes:
    """Serialize a Volume as canonical float32 NIfTI-1 (slope 1, inter 0)."""
    return b"".join(_volume_chunks(volume))


def write_mask(mask: SegmentationMask) -> bytes:
    """Serialize a SegmentationMask as uint8 NIfTI-1."""
    return b"".join(_mask_chunks(mask))


class _GzipStream:
    """The payload of every gzip member of the binary file `fh`, in order,
    inflated as it is read (`read`, `readinto`).

    zlib checks each member's header, CRC and length as it reaches them.
    Compressed input is read `_INFLATE_CHUNK` bytes at a time, and each
    zlib call returns at most `_INFLATE_CHUNK` bytes, copied straight into
    the reader's buffer: no copy of the file or of its payload is made.
    Zero bytes between members are skipped, as gzip.decompress does.
    """

    def __init__(self, fh):
        self._fh = fh
        self._inflater = zlib.decompressobj(wbits=31)
        self._input = b""
        self._hungry = True  # zlib has inflated all the input it was given

    def readinto(self, buf) -> int:
        """Fill the byte buffer `buf`, short only at the end of the stream;
        return the count of bytes written."""
        filled = 0
        try:
            while filled < len(buf):
                if self._inflater.eof and not self._next_member():
                    break
                if self._hungry:
                    self._input = self._fh.read(_INFLATE_CHUNK)
                    if not self._input:
                        raise TruncatedDataError("gzip stream truncated: no end-of-stream marker")
                want = min(len(buf) - filled, _INFLATE_CHUNK)
                chunk = self._inflater.decompress(self._input, want)
                self._input = self._inflater.unconsumed_tail
                buf[filled : filled + len(chunk)] = chunk
                filled += len(chunk)
                # a full chunk may leave output pending in zlib
                self._hungry = len(chunk) < want and not self._inflater.eof
        except zlib.error as err:
            raise HeaderError(f"corrupt gzip stream: {err}") from err
        return filled

    def read(self, size: int) -> bytes:
        buf = bytearray(size)
        return bytes(buf[: self.readinto(memoryview(buf))])

    def _next_member(self) -> bool:
        """Start the member after the one that ended, past any zero bytes;
        False at the end of the file."""
        rest = self._inflater.unused_data
        while not (rest := rest.lstrip(b"\x00")):
            rest = self._fh.read(_INFLATE_CHUNK)
            if not rest:
                return False
        self._inflater = zlib.decompressobj(wbits=31)
        self._input, self._hungry = rest, False
        return True


def _skip(stream, size: int) -> int:
    """Read past `size` bytes of `stream`; return the count read, short
    only at its end."""
    scratch = memoryview(bytearray(min(size, _INFLATE_CHUNK)))
    done = 0
    while done < size and (got := stream.readinto(scratch[: size - done])):
        done += got
    return done


@contextmanager
def _open_payload(path: Path):
    """The bytes of a .nii file, or the inflated bytes of a .nii.gz file,
    as a binary stream. A .gz stream is read to its end once the block
    exits cleanly, so every member's CRC and length are checked."""
    with open(path, "rb") as fh:
        if path.suffix != ".gz":
            yield fh
            return
        stream = _GzipStream(fh)
        yield stream
        _skip(stream, sys.maxsize)


def read_header(path) -> VolumeHeader:
    """The header of a .nii or .nii.gz file, after every check `load_volume`
    makes short of decoding the voxels.

    A ``.nii`` is checked against its size on disk; a ``.nii.gz`` is
    inflated to its end, a chunk at a time and kept nowhere, so its CRC
    and length are checked too.
    """
    path = Path(path)
    with _open_payload(path) as stream:
        header = parse_header(stream.read(HEADER_SIZE))
        if path.suffix == ".gz":
            length = HEADER_SIZE + _skip(stream, sys.maxsize)
        else:
            length = os.fstat(stream.fileno()).st_size
    _check_length(header, length)
    return header


def load_volume(path) -> Volume:
    """Read a .nii or .nii.gz file from disk."""
    with _open_payload(Path(path)) as stream:
        return _read_volume(stream)


def load_mask(path, remap_label_4: bool = True) -> SegmentationMask:
    with _open_payload(Path(path)) as stream:
        return _read_mask(stream, remap_label_4)


def save_volume(path, volume: Volume) -> None:
    """Write a volume to .nii or .nii.gz; compression follows the suffix."""
    _write_file(Path(path), _volume_chunks(volume))


def save_mask(path, mask: SegmentationMask) -> None:
    _write_file(Path(path), _mask_chunks(mask))


def _write_file(path: Path, chunks) -> None:
    """Write the bytes-like items of `chunks` to `path` as they come, as
    one gzip member for a .gz suffix.

    The member is byte-equal to ``gzip.compress(b"".join(chunks), mtime=0)``:
    mtime 0 and no file name in its header, so identical volumes produce
    identical bytes whatever the (temporary) file is called.
    """
    stream = zlib.compressobj(9, zlib.DEFLATED, 31) if path.suffix == ".gz" else None
    with open(path, "wb") as fh:
        for chunk in chunks:
            if stream is None:
                fh.write(chunk)
            else:
                # deflate's output does not depend on how its input is cut,
                # and each call's output stays one chunk's worth
                view = memoryview(chunk).cast("B")
                for start in range(0, len(view), _INFLATE_CHUNK):
                    fh.write(stream.compress(view[start : start + _INFLATE_CHUNK]))
                del view
            del chunk  # freed before the next is made
        if stream is not None:
            fh.write(stream.flush())


def _find_file(directory: Path, *stems: str) -> Path | None:
    """The first existing ``<stem>.nii`` or ``<stem>.nii.gz``, stems in order."""
    for stem in stems:
        for suffix in (".nii", ".nii.gz"):
            candidate = directory / (stem + suffix)
            if candidate.exists():
                return candidate
    return None


def case_paths(cases) -> list[tuple[str, str, Path]]:
    """``(case_id, name, path)`` of every file of each ``(directory,
    case_id)`` in `cases`, in `CASE_FILES` order; the seg is optional.

    Raises FileNotFoundError for a missing modality, before any file is read.
    """
    plan = []
    for directory, case_id in cases:
        directory = Path(directory)
        for name in CASE_FILES:
            path = _find_file(directory, f"{case_id}-{name}")
            if path is not None:
                plan.append((case_id, name, path))
            elif name != "seg":
                missing = directory / f"{case_id}-{name}"
                raise FileNotFoundError(f"missing file {missing}.nii[.gz]")
    return plan


def _load_file(case_id, name, path, first, decode):
    """One case file, decoded if `decode` names it and otherwise its
    `read_header`, checked against `first`, the grid of its case's first
    file (None for that file itself). Errors name the file."""
    try:
        if name not in decode:
            item = read_header(path)
        elif name == "seg":
            item = load_mask(path)
        else:
            item = load_volume(path)
        if name == "seg":
            _check_aligned(case_id, {MODALITIES[0]: first}, item)
        elif first is not None:
            _check_aligned(case_id, {MODALITIES[0]: first, name: item}, None)
        return item
    except GliomaForgeError as err:
        raise type(err)(f"{path}: {err}") from err


def iter_case_files(paths, decode: tuple[str, ...] = CASE_FILES):
    """Yield ``(case_id, name, item)`` for each ``(case_id, name, path)`` of
    `paths`, a `case_paths` list, as `load_case` reads them.

    `item` is a SegmentationMask for the seg (label 4 read as 3) and a
    Volume for each modality; a file `decode` does not name is checked from
    its header alone (`read_header`), which is its item. Each file is
    checked against the first of its case (dims and spacing; the seg's
    dims) before it is yielded. Files are read as they are asked for, and
    none is kept here once yielded, so one decoded file is alive at a time.
    """
    for case_id, name, path in paths:
        starts_case = name == MODALITIES[0]
        item = [_load_file(case_id, name, path, None if starts_case else first, decode)]
        if starts_case:  # the grid its case's later files must match
            first = getattr(item[0], "header", item[0])
        yield case_id, name, item.pop()


def read_ahead(items):
    """Yield from the iterator `items`, taking its next item on one
    background thread while the caller works on the current one.

    With `iter_case_files`, at most two decoded files are alive at once.
    Memory freed in the reader thread's malloc arena is not reused by the
    caller's thread: reading `predict`'s reference case this way raised its
    peak RSS by 13 MiB, so only a long stream pays for the thread.
    """
    from concurrent.futures import ThreadPoolExecutor  # imports logging: only when used

    pool = ThreadPoolExecutor(max_workers=1)
    try:
        futures = [pool.submit(next, items, None)]
        while futures[0].result() is not None:
            futures.append(pool.submit(next, items, None))
            yield futures.pop(0).result()  # keeping neither the item nor its future
    finally:
        pool.shutdown(cancel_futures=True)


def load_case(directory, case_id: str, decode: tuple[str, ...] = CASE_FILES) -> MultiModalCase:
    """Assemble a MultiModalCase from ``<case_id>-<name>.nii[.gz]`` files.

    All four modalities must be present, whole and aligned; ``<case_id>-seg``
    is optional. Only the files in `decode` (modalities and "seg") are
    decoded and kept in the case; the others pass the same checks from their
    headers (`read_header`), and an undecoded seg leaves `label` None.
    Raises FileNotFoundError for a missing modality, AlignmentError for
    dim/spacing mismatches and LabelError for out-of-range labels in a
    decoded seg.

    It reads in the caller's thread: one case leaves no work to overlap a
    read with, and a reader thread cost `predict` 25 MiB of peak RSS on a
    128x128x96 case (see `read_ahead`).
    """
    modalities, label = {}, None
    for _, name, item in iter_case_files(case_paths([(directory, case_id)]), decode):
        if name not in decode:
            continue
        if name == "seg":
            label = item
        else:
            modalities[name] = item
    return MultiModalCase(case_id=case_id, modalities=modalities, label=label)


def _nifti_stems(directory) -> list[str]:
    """Names of the ``.nii``/``.nii.gz`` files in a directory, suffix stripped."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"data directory {directory} does not exist")
    stems = []
    for path in directory.iterdir():
        for suffix in (".nii.gz", ".nii"):
            if path.name.endswith(suffix):
                stems.append(path.name[: -len(suffix)])
                break
    return stems


def list_case_ids(directory) -> list[str]:
    """Case ids inferred from ``<id>-t1.nii[.gz]`` files, sorted.

    Raises FileNotFoundError for a missing directory and PairingError when
    it holds no case.
    """
    ids = {stem[: -len("-t1")] for stem in _nifti_stems(directory) if stem.endswith("-t1")}
    if not ids:
        raise PairingError(f"no cases found in {directory}")
    return sorted(ids)


def list_mask_ids(directory) -> list[str]:
    """Case ids of the masks in a directory, sorted.

    ``<id>-seg`` files (full case directories) and bare ``<id>`` mask files
    may sit side by side; modality volumes are never mistaken for cases.
    Raises like `list_case_ids`.
    """
    modality_suffixes = tuple(f"-{mod}" for mod in MODALITIES)
    ids = {
        stem[: -len("-seg")] if stem.endswith("-seg") else stem
        for stem in _nifti_stems(directory)
        if not stem.endswith(modality_suffixes)
    }
    if not ids:
        raise PairingError(f"no masks found in {directory}")
    return sorted(ids)


def save_case(directory, case: MultiModalCase, compress: bool = False) -> None:
    """Write all modalities (and label, if any) of a case to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ext = ".nii.gz" if compress else ".nii"
    for mod in MODALITIES:
        save_volume(directory / f"{case.case_id}-{mod}{ext}", case.modalities[mod])
    if case.label is not None:
        save_mask(directory / f"{case.case_id}-seg{ext}", case.label)
