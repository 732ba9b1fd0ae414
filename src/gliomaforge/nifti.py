"""Minimal NIfTI-1 reader/writer and multi-modal case assembly.

Supports the single-file ``.nii`` layout (magic ``n+1\\0`` or ``ni1\\0``,
348-byte header, voxel payload at ``vox_offset``) plus gzip-compressed
``.nii.gz``. Only uint8 / int16 / float32 voxels are accepted; anything else
is rejected loudly. Written files are always float32 with slope 1 / inter 0,
the canonical internal form. Voxel data is stored on disk in the standard
NIfTI order (first axis fastest).

Cases follow the naming convention ``<case_id>-{t1,t1ce,t2,flair,seg}.nii``.
`case_paths` finds the files of many cases, `iter_case_files` streams them
one at a time and `load_case` collects one case from the same reader;
`read_ahead` runs such a stream one item ahead on a background thread.
Errors raised while reading or checking a case file name the file.
"""

from __future__ import annotations

import os
import re
import zlib
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
# `_c_order` copies blocks of this many indices of the first two axes at a
# time, the last axis whole, so a block's reads and writes stay in cache
_TRANSPOSE_BLOCK = 32

# Bytes of compressed input, and of output, that `_inflate` hands zlib per
# call: below malloc's mmap threshold, so each call's output buffer is
# reused memory, and small beside a payload.
_INFLATE_CHUNK = 1 << 16
_NONZERO_BYTE = re.compile(rb"[^\x00]")

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


def _raw_grid(buf: bytes, header: VolumeHeader) -> np.ndarray:
    """The payload as a read-only view in the file's dtype, first axis fastest."""
    _check_length(header, len(buf))
    voxel_dtype = np.dtype(header.datatype).newbyteorder(header.byte_order)
    raw = np.frombuffer(buf, dtype=voxel_dtype, count=header.voxel_count, offset=header.vox_offset)
    return raw.reshape(header.dims, order="F")


def _c_order(view: np.ndarray, dtype=None) -> np.ndarray:
    """``np.array(view, dtype=dtype, order="C")`` for a 3-d `view` whose
    first axis is fastest in memory: a payload read in NIfTI order, or a
    C-contiguous grid's ``.T``.

    numpy's own copy walks the output in order, so each read lands a whole
    plane away from the last. Copying `_TRANSPOSE_BLOCK`-square blocks of
    the first two axes reuses each cache line it reads: a 240x240x155
    float32 decode took 33 ms instead of 58 ms, and an encode 24 ms instead
    of 42 ms, on a 2-vCPU Xeon.
    """
    out = np.empty(view.shape, dtype=dtype or view.dtype)
    step = _TRANSPOSE_BLOCK
    for i in range(0, view.shape[0], step):
        for j in range(0, view.shape[1], step):
            out[i : i + step, j : j + step] = view[i : i + step, j : j + step]
    return out


def _is_scaled(header: VolumeHeader) -> bool:
    return header.scl_slope != 1.0 or header.scl_inter != 0.0


def read_volume(buf: bytes) -> Volume:
    """Decode a full single-file NIfTI-1 buffer into a float32 Volume."""
    header = parse_header(buf)
    # one pass converts dtype and byte order and reorders to C layout
    data = _c_order(_raw_grid(buf, header), np.float32)
    if _is_scaled(header):
        data *= np.float32(header.scl_slope)
        data += np.float32(header.scl_inter)
    canonical = VolumeHeader(dims=header.dims, spacing=header.spacing)
    return Volume(header=canonical, data=data)


def _encode(data: np.ndarray, spacing, datatype_code: int) -> tuple[bytes, np.ndarray]:
    """The header, padded to the payload offset, and the payload of a file
    holding `data`.

    The payload is one C-order copy of the transposed grid: its bytes
    are `data` in NIfTI order (first axis fastest), in `data`'s dtype.
    """
    hdr = np.zeros(1, dtype=_header_dtype("<"))[0]
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"][:] = [3, *data.shape, 1, 1, 1, 1]
    hdr["datatype"] = datatype_code
    hdr["bitpix"] = _BITPIX[datatype_code]
    hdr["pixdim"][:] = [1.0, *spacing, 0.0, 0.0, 0.0, 0.0]
    hdr["vox_offset"] = float(DEFAULT_VOX_OFFSET)
    hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2  # millimetres
    hdr["magic"] = MAGIC_SINGLE
    pad = b"\x00" * (DEFAULT_VOX_OFFSET - HEADER_SIZE)
    return hdr.tobytes() + pad, _c_order(data.T)


def _volume_parts(volume: Volume) -> tuple[bytes, np.ndarray]:
    if not np.isfinite(volume.data).all():
        raise ValueError("volume contains non-finite values; refusing to write")
    data = volume.data.astype("<f4", copy=False)
    return _encode(data, volume.spacing, _DTYPE_TO_CODE[np.dtype(np.float32)])


def _mask_parts(mask: SegmentationMask) -> tuple[bytes, np.ndarray]:
    return _encode(mask.labels.astype(np.uint8, copy=False), mask.spacing,
                   _DTYPE_TO_CODE[np.dtype(np.uint8)])


def write_volume(volume: Volume) -> bytes:
    """Serialize a Volume as canonical float32 NIfTI-1 (slope 1, inter 0)."""
    return b"".join(_volume_parts(volume))


def write_mask(mask: SegmentationMask) -> bytes:
    """Serialize a SegmentationMask as uint8 NIfTI-1."""
    return b"".join(_mask_parts(mask))


def read_mask(buf: bytes, remap_label_4: bool = True) -> SegmentationMask:
    """Decode a segmentation file, optionally remapping legacy label 4 -> 3."""
    header = parse_header(buf)
    if header.datatype == "uint8" and not _is_scaled(header):
        # uint8 labels are integers already: copy them out in C layout
        labels = _c_order(_raw_grid(buf, header))
    else:
        data = read_volume(buf).data
        rounded = np.rint(data)
        if not np.array_equal(data, rounded):
            raise LabelError("segmentation contains non-integer values")
        labels = rounded.astype(np.int64)
    if remap_label_4:
        labels[labels == 4] = 3
    # SegmentationMask validates before its uint8 cast, so 259 or -1 cannot wrap
    return SegmentationMask(labels=labels, spacing=header.spacing)


def _read_bytes(path: Path) -> bytes | memoryview:
    path = Path(path)
    buf = path.read_bytes()
    return _inflate(buf) if path.suffix == ".gz" else buf


def _inflate(data: bytes) -> memoryview:
    """The payload of every gzip member in `data`, in order.

    zlib checks each member's header, CRC and length while it inflates, so
    the payload is read once. Output comes `_INFLATE_CHUNK` bytes at a time
    and is copied into one buffer sized from the last member's trailer:
    exact for a file of one member, grown when more members follow. So no
    second full-size copy of the payload exists at any time. Zero bytes
    between members are skipped, as gzip.decompress does.
    """
    # unfilled pages cost nothing, so a corrupt trailer's size does no harm
    out, size = np.empty(int.from_bytes(data[-4:], "little"), dtype=np.uint8), 0
    view, start = memoryview(data), 0
    try:
        while start < len(data):
            inflater = zlib.decompressobj(wbits=31)
            while not inflater.eof:
                piece = view[start : start + _INFLATE_CHUNK]
                if not piece:
                    raise TruncatedDataError("gzip stream truncated: no end-of-stream marker")
                start += len(piece)
                while True:
                    chunk = inflater.decompress(piece, _INFLATE_CHUNK)
                    if size + len(chunk) > len(out):
                        grown = np.empty(2 * len(out) + len(chunk), dtype=np.uint8)
                        grown[:size] = out[:size]
                        out = grown
                    out[size : size + len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)
                    size += len(chunk)
                    piece = inflater.unconsumed_tail
                    # a full chunk may leave output pending in zlib
                    if not piece and len(chunk) < _INFLATE_CHUNK:
                        break
            start -= len(inflater.unused_data)
            nonzero = _NONZERO_BYTE.search(data, start)
            start = nonzero.start() if nonzero else len(data)
    except zlib.error as err:
        raise HeaderError(f"corrupt gzip stream: {err}") from err
    return memoryview(out)[:size]


def read_header(path) -> VolumeHeader:
    """The header of a .nii or .nii.gz file, after every check `load_volume`
    makes short of decoding the voxels.

    A ``.nii`` is checked against its size on disk; a ``.nii.gz`` is
    decompressed in full, so its CRC and length are checked too.
    """
    path = Path(path)
    if path.suffix == ".gz":
        buf = _read_bytes(path)
        length = len(buf)
    else:
        with open(path, "rb") as fh:
            buf = fh.read(HEADER_SIZE)
            length = os.fstat(fh.fileno()).st_size
    header = parse_header(buf)
    _check_length(header, length)
    return header


def load_volume(path) -> Volume:
    """Read a .nii or .nii.gz file from disk."""
    return read_volume(_read_bytes(Path(path)))


def save_volume(path, volume: Volume) -> None:
    """Write a volume to .nii or .nii.gz; compression follows the suffix."""
    _write_file(Path(path), *_volume_parts(volume))


def save_mask(path, mask: SegmentationMask) -> None:
    _write_file(Path(path), *_mask_parts(mask))


def load_mask(path, remap_label_4: bool = True) -> SegmentationMask:
    return read_mask(_read_bytes(Path(path)), remap_label_4=remap_label_4)


def _write_file(path: Path, *chunks) -> None:
    """Write bytes-like chunks to `path`, as one gzip member for a .gz suffix.

    The member is byte-equal to ``gzip.compress(b"".join(chunks), mtime=0)``:
    mtime 0 and no file name in its header, so identical volumes produce
    identical bytes whatever the (temporary) file is called.
    """
    stream = zlib.compressobj(9, zlib.DEFLATED, 31) if path.suffix == ".gz" else None
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(stream.compress(chunk) if stream else chunk)
        if stream:
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


def _load_file(case_id, name, path, first, decode, remap_label_4):
    """One case file, decoded if `decode` names it and otherwise its
    `read_header`, checked against `first`, the grid of its case's first
    file (None for that file itself). Errors name the file."""
    try:
        if name not in decode:
            item = read_header(path)
        elif name == "seg":
            item = load_mask(path, remap_label_4=remap_label_4)
        else:
            item = load_volume(path)
        if name == "seg":
            _check_aligned(case_id, {MODALITIES[0]: first}, item)
        elif first is not None:
            _check_aligned(case_id, {MODALITIES[0]: first, name: item}, None)
        return item
    except GliomaForgeError as err:
        raise type(err)(f"{path}: {err}") from err


def _case_items(paths, decode, remap_label_4):
    """The files of `iter_case_files`, read one by one as they are asked for."""
    for case_id, name, path in paths:
        starts_case = name == MODALITIES[0]
        item = _load_file(
            case_id, name, path, None if starts_case else first, decode, remap_label_4
        )
        if starts_case:  # the grid its case's later files must match
            first = getattr(item, "header", item)
        yield case_id, name, item


def iter_case_files(paths, decode: tuple[str, ...] = CASE_FILES):
    """Yield ``(case_id, name, item)`` for each ``(case_id, name, path)`` of
    `paths`, a `case_paths` list, as `load_case` reads them.

    `item` is a SegmentationMask for the seg (label 4 read as 3) and a
    Volume for each modality; a file `decode` does not name is checked from
    its header alone (`read_header`), which is its item. Each file is
    checked against the first of its case (dims and spacing; the seg's
    dims) before it is yielded. Files are read as they are asked for, so
    one decoded file is alive at a time.
    """
    return _case_items(paths, decode, True)


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
        pending = pool.submit(next, items, None)
        while (item := pending.result()) is not None:
            pending = pool.submit(next, items, None)
            yield item
    finally:
        pool.shutdown(cancel_futures=True)


def load_case(
    directory, case_id: str, remap_label_4: bool = True, decode: tuple[str, ...] = CASE_FILES
) -> MultiModalCase:
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
    files = _case_items(case_paths([(directory, case_id)]), decode, remap_label_4)
    for _, name, item in files:
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
