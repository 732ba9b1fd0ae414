"""NIfTI subset: header parsing, round-trips, endianness, case assembly."""

import gzip
import inspect
import threading
import tracemalloc

import numpy as np
import pytest

from gliomaforge import nifti
from gliomaforge.errors import (
    AlignmentError,
    HeaderError,
    LabelError,
    TruncatedDataError,
    UnsupportedDataTypeError,
)


def make_volume(shape=(4, 4, 4), spacing=(1.0, 1.0, 1.0), seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape).astype(np.float32)
    return nifti.Volume.from_array(data, spacing=spacing)


def byteswap_buffer(buf: bytes) -> bytes:
    """Independent oracle: swap every field of a written file byte-by-byte."""
    hdr = np.frombuffer(buf[: nifti.HEADER_SIZE], dtype=nifti._header_dtype("<"))
    swapped_hdr = hdr.byteswap().tobytes()
    pad = buf[nifti.HEADER_SIZE : nifti.DEFAULT_VOX_OFFSET]
    payload = np.frombuffer(buf[nifti.DEFAULT_VOX_OFFSET :], dtype="<f4").byteswap().tobytes()
    return swapped_hdr + pad + payload


def old_read_volume(buf: bytes) -> np.ndarray:
    """Reference decode: the float32 grid as the two-copy decoder built it."""
    header = nifti.parse_header(buf)
    voxel_dtype = np.dtype(header.datatype).newbyteorder(header.byte_order)
    nbytes = header.voxel_count * voxel_dtype.itemsize
    payload = buf[header.vox_offset : header.vox_offset + nbytes]
    raw = np.frombuffer(payload, dtype=voxel_dtype).reshape(header.dims, order="F")
    data = raw.astype(np.float32)
    if header.scl_slope != 1.0 or header.scl_inter != 0.0:
        data = data * np.float32(header.scl_slope) + np.float32(header.scl_inter)
    return np.ascontiguousarray(data)


def old_read_mask(buf: bytes, remap_label_4: bool) -> np.ndarray:
    """Reference mask decode: float32 grid, rint check, int64, remap, isin."""
    data = old_read_volume(buf)
    rounded = np.rint(data)
    if not np.array_equal(data, rounded):
        raise LabelError("non-integer")
    labels = rounded.astype(np.int64)
    if remap_label_4:
        labels[labels == 4] = 3
    if not np.isin(labels, nifti.VALID_LABELS).all():
        raise LabelError("out of range")
    return labels.astype(np.uint8)


def encode(data: np.ndarray, spacing, code: int) -> bytes:
    """A whole file holding `data` as datatype `code`, unvalidated."""
    return b"".join(nifti._encode(data, spacing, code))


def scaled(buf: bytes, slope: float, inter: float) -> bytes:
    out = bytearray(buf)
    out[112:116] = np.float32(slope).tobytes()  # scl_slope
    out[116:120] = np.float32(inter).tobytes()  # scl_inter
    return bytes(out)


class TestParseHeader:
    def test_constructed_roundtrip(self):
        vol = make_volume()
        hdr = nifti.parse_header(nifti.write_volume(vol))
        assert hdr.dims == (4, 4, 4)
        assert hdr.spacing == (1.0, 1.0, 1.0)
        assert hdr.datatype == "float32"
        assert hdr.scl_slope == 1.0 and hdr.scl_inter == 0.0
        assert hdr.vox_offset == 352

    def test_byteswapped_header_detected(self):
        buf = nifti.write_volume(make_volume())
        hdr = nifti.parse_header(buf)
        swapped = nifti.parse_header(byteswap_buffer(buf))
        assert swapped.dims == hdr.dims
        assert swapped.spacing == hdr.spacing
        assert swapped.datatype == hdr.datatype
        assert swapped.byte_order == ">"

    def test_float64_rejected(self):
        buf = bytearray(nifti.write_volume(make_volume()))
        buf[70:72] = np.int16(64).tobytes()  # datatype field -> float64
        with pytest.raises(UnsupportedDataTypeError):
            nifti.parse_header(bytes(buf))

    def test_bad_magic(self):
        buf = bytearray(nifti.write_volume(make_volume()))
        buf[344:348] = b"xxx\x00"
        with pytest.raises(HeaderError):
            nifti.parse_header(bytes(buf))

    def test_nonpositive_dims(self):
        buf = bytearray(nifti.write_volume(make_volume()))
        buf[42:44] = np.int16(0).tobytes()  # dim[1] = 0
        with pytest.raises(HeaderError):
            nifti.parse_header(bytes(buf))

    def test_garbage_buffer(self):
        with pytest.raises(HeaderError):
            nifti.parse_header(b"\x01" * 348)
        with pytest.raises(HeaderError):
            nifti.parse_header(b"short")


class TestReadWrite:
    def test_uint8_slope_inter(self):
        # scalar affine oracle: raw*2 + 1 on [0..63]
        raw = np.arange(64, dtype=np.uint8).reshape(4, 4, 4)
        buf = bytearray(encode(raw, (1.0, 1.0, 1.0), 2))
        buf[112:116] = np.float32(2.0).tobytes()  # scl_slope
        buf[116:120] = np.float32(1.0).tobytes()  # scl_inter
        vol = nifti.read_volume(bytes(buf))
        expected = raw.astype(np.float32) * 2.0 + 1.0
        assert np.array_equal(vol.data, expected)
        assert vol.data.min() == 1.0 and vol.data.max() == 127.0

    def test_roundtrip_identity(self):
        vol = make_volume(shape=(3, 5, 7), spacing=(1.0, 1.5, 2.0), seed=3)
        back = nifti.read_volume(nifti.write_volume(vol))
        assert np.array_equal(back.data, vol.data)
        assert back.dims == vol.dims
        assert back.spacing == vol.spacing

    def test_truncated_payload(self):
        buf = nifti.write_volume(make_volume())
        with pytest.raises(TruncatedDataError):
            nifti.read_volume(buf[:-1])

    def test_written_size(self):
        # size arithmetic: 352 header+pad plus 8 voxels * 4 bytes
        vol = nifti.Volume.from_array(np.zeros((2, 2, 2), dtype=np.float32))
        assert len(nifti.write_volume(vol)) == 352 + 32

    def test_nonfinite_rejected(self):
        vol = make_volume()
        vol.data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            nifti.write_volume(vol)

    def test_byteswapped_file_reads_identically(self):
        vol = make_volume(seed=11)
        buf = nifti.write_volume(vol)
        swapped = nifti.read_volume(byteswap_buffer(buf))
        assert np.array_equal(swapped.data, vol.data)

    @pytest.mark.parametrize("code", [2, 4, 16], ids=["uint8", "int16", "float32"])
    @pytest.mark.parametrize("slope,inter", [(1.0, 0.0), (2.0, 1.0), (0.5, -3.25)])
    @pytest.mark.parametrize("swap", [False, True], ids=["little", "big"])
    def test_decode_equals_old_decoder(self, code, slope, inter, swap):
        raw = np.random.default_rng(code).integers(0, 200, size=(5, 4, 3))
        dtype = {2: np.uint8, 4: np.int16, 16: np.float32}[code]
        buf = scaled(encode(raw.astype(dtype), (1.0, 2.0, 1.5), code), slope, inter)
        if swap:
            header = np.frombuffer(buf[: nifti.HEADER_SIZE], dtype=nifti._header_dtype("<"))
            payload = np.frombuffer(buf[nifti.DEFAULT_VOX_OFFSET :], dtype=np.dtype(dtype))
            buf = (header.byteswap().tobytes() + buf[nifti.HEADER_SIZE : nifti.DEFAULT_VOX_OFFSET]
                   + payload.byteswap().tobytes())
        vol = nifti.read_volume(buf)
        want = old_read_volume(buf)
        assert vol.data.dtype == np.float32 and vol.data.flags.c_contiguous
        assert np.array_equal(vol.data.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_saved_files_equal_written_bytes(self, tmp_path, suffix):
        # one transposed copy gives the same payload as the Fortran-order
        # serialisation, and the streamed gzip member that of gzip.compress
        vol = make_volume(shape=(7, 5, 3), spacing=(1.0, 1.5, 2.0), seed=4)
        labels = np.random.default_rng(4).integers(0, 4, size=(7, 5, 3))
        mask = nifti.SegmentationMask(labels=labels, spacing=(1.0, 1.5, 2.0))
        for data, write, save in ((vol.data, nifti.write_volume, nifti.save_volume),
                                  (mask.labels, nifti.write_mask, nifti.save_mask)):
            obj = vol if save is nifti.save_volume else mask
            buf = write(obj)
            assert buf[nifti.DEFAULT_VOX_OFFSET :] == np.asfortranarray(data).tobytes(order="F")
            save(tmp_path / f"x{suffix}", obj)
            want = gzip.compress(buf, mtime=0) if suffix == ".nii.gz" else buf
            assert (tmp_path / f"x{suffix}").read_bytes() == want

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 9, size=3))
        vol = make_volume(shape=shape, seed=seed + 100)
        back = nifti.read_volume(nifti.write_volume(vol))
        assert np.array_equal(back.data, vol.data)


class TestMaskIO:
    def test_mask_roundtrip(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=(5, 5, 5))
        mask = nifti.SegmentationMask(labels=labels)
        back = nifti.read_mask(nifti.write_mask(mask))
        assert np.array_equal(back.labels, mask.labels)

    def test_label4_remap(self):
        labels = np.zeros((3, 3, 3), dtype=np.uint8)
        labels[1, 1, 1] = 3
        mask = nifti.SegmentationMask(labels=labels)
        buf = bytearray(nifti.write_mask(mask))
        # rewrite the voxel payload with a legacy label 4
        payload = np.frombuffer(bytes(buf[352:]), dtype=np.uint8).copy()
        payload[payload == 3] = 4
        buf[352:] = payload.tobytes()
        remapped = nifti.read_mask(bytes(buf), remap_label_4=True)
        assert remapped.labels[1, 1, 1] == 3
        with pytest.raises(LabelError):
            nifti.read_mask(bytes(buf), remap_label_4=False)

    @pytest.mark.parametrize("value", [259, -1])
    def test_int16_labels_are_checked_before_narrowing(self, value):
        # uint8 would wrap 259 to 3 and -1 to 255
        labels = np.zeros((3, 3, 3), dtype=np.int16)
        labels[1, 1, 1] = value
        with pytest.raises(LabelError):
            nifti.read_mask(encode(labels, (1.0, 1.0, 1.0), 4))

    @pytest.mark.parametrize("remap", [True, False], ids=["remap", "no-remap"])
    @pytest.mark.parametrize(
        "code,extra",
        [(2, 4), (2, 5), (2, 255), (4, 4), (4, 259), (4, -1), (16, 4), (16, 259), (16, -1),
         (16, 2.5)],
    )
    def test_mask_files_equal_old_decoder(self, code, extra, remap):
        dtype = {2: np.uint8, 4: np.int16, 16: np.float32}[code]
        labels = np.random.default_rng(1).integers(0, 4, size=(4, 5, 6)).astype(dtype)
        labels[1, 2, 3] = extra
        labels[0, 0, 0] = 4
        bufs = [encode(labels, (1.0, 1.0, 2.0), code)]
        doubled = labels.astype(np.float64) * 2
        if np.array_equal(doubled.astype(dtype), doubled):  # stored x2, slope 1/2
            bufs.append(scaled(encode(doubled.astype(dtype), (1.0, 1.0, 2.0), code), 0.5, 0))
        for buf in bufs:
            try:
                want = old_read_mask(buf, remap)
            except LabelError:
                with pytest.raises(LabelError):
                    nifti.read_mask(buf, remap_label_4=remap)
                continue
            got = nifti.read_mask(buf, remap_label_4=remap)
            assert got.labels.dtype == np.uint8 and got.labels.flags.c_contiguous
            assert np.array_equal(got.labels, want)
            assert got.spacing == (1.0, 1.0, 2.0)

    def test_invalid_label_values(self):
        with pytest.raises(LabelError):
            nifti.SegmentationMask(labels=np.full((2, 2, 2), 7))


class TestLoadCase:
    def write_case(self, tmp_path, case_id="sub1", dims=(4, 4, 4), with_seg=False):
        for mod in nifti.MODALITIES:
            nifti.save_volume(tmp_path / f"{case_id}-{mod}.nii", make_volume(shape=dims))
        if with_seg:
            labels = np.zeros(dims, dtype=np.uint8)
            labels[1, 1, 1] = 2
            nifti.save_mask(tmp_path / f"{case_id}-seg.nii", nifti.SegmentationMask(labels=labels))

    def test_case_without_label(self, tmp_path):
        self.write_case(tmp_path)
        case = nifti.load_case(tmp_path, "sub1")
        assert case.label is None
        assert case.dims == (4, 4, 4)

    def test_case_with_label(self, tmp_path):
        self.write_case(tmp_path, with_seg=True)
        case = nifti.load_case(tmp_path, "sub1")
        assert case.label is not None
        assert case.label.labels[1, 1, 1] == 2

    def test_legacy_label_4_reads_as_3(self, tmp_path):
        # always remapped: load_case has no knob to keep a raw 4
        assert "remap_label_4" not in inspect.signature(nifti.load_case).parameters
        self.write_case(tmp_path)
        labels = np.zeros((4, 4, 4), dtype=np.uint8)
        labels[1, 1, 1] = 4
        (tmp_path / "sub1-seg.nii").write_bytes(encode(labels, (1.0, 1.0, 1.0), 2))
        assert nifti.load_case(tmp_path, "sub1").label.labels[1, 1, 1] == 3

    def test_missing_modality(self, tmp_path):
        self.write_case(tmp_path)
        (tmp_path / "sub1-t2.nii").unlink()
        with pytest.raises(FileNotFoundError):
            nifti.load_case(tmp_path, "sub1")

    def test_dim_mismatch(self, tmp_path):
        self.write_case(tmp_path)
        nifti.save_volume(tmp_path / "sub1-t2.nii", make_volume(shape=(5, 4, 4)))
        with pytest.raises(AlignmentError):
            nifti.load_case(tmp_path, "sub1")

    def test_gzip_files(self, tmp_path):
        vol = make_volume(seed=7)
        nifti.save_volume(tmp_path / "v.nii.gz", vol)
        back = nifti.load_volume(tmp_path / "v.nii.gz")
        assert np.array_equal(back.data, vol.data)

    @pytest.mark.parametrize(
        "split", [0, 500, -500], ids=["one-member", "short-first", "short-last"]
    )
    def test_gzip_members_and_zero_padding(self, tmp_path, split):
        # a payload of many inflate chunks, split over two members with zero
        # bytes after each
        vol = make_volume(shape=(60, 50, 40), seed=8)
        raw = nifti.write_volume(vol)
        assert len(raw) > 4 * nifti._INFLATE_CHUNK
        parts = [raw[:split], raw[split:]] if split else [raw]
        (tmp_path / "v.nii.gz").write_bytes(b"".join(gzip.compress(p) + bytes(7) for p in parts))
        with nifti._open_payload(tmp_path / "v.nii.gz") as stream:
            assert stream.read(len(raw) + 1) == raw
        assert np.array_equal(nifti.load_volume(tmp_path / "v.nii.gz").data, vol.data)

    @pytest.mark.parametrize(
        "damage, error",
        [
            (lambda gz: gz[:-1], TruncatedDataError),  # inside the trailer
            (lambda gz: gz[: len(gz) // 2], TruncatedDataError),  # inside the deflate data
            (lambda gz: gz + gz[:5], TruncatedDataError),  # a second member's header
            (lambda gz: gz[:-8] + bytes([gz[-8] ^ 1]) + gz[-7:], HeaderError),  # CRC
            (lambda gz: gz[:-4] + bytes([gz[-4] ^ 1]) + gz[-3:], HeaderError),  # length
            (lambda gz: b"NOTGZ" + gz, HeaderError),
            (lambda gz: gz + b"junk", HeaderError),
        ],
        ids=["trailer", "deflate", "member-header", "crc", "length", "not-gzip", "trailing-junk"],
    )
    def test_gzip_damage(self, tmp_path, damage, error):
        gz = gzip.compress(nifti.write_volume(make_volume(seed=9)))
        (tmp_path / "v.nii.gz").write_bytes(damage(gz))
        with pytest.raises(error):
            nifti.load_volume(tmp_path / "v.nii.gz")

    def test_decode_only_keeps_one_modality(self, tmp_path):
        self.write_case(tmp_path, with_seg=True)
        full = nifti.load_case(tmp_path, "sub1")
        flair = nifti.load_case(tmp_path, "sub1", decode=("flair",))
        assert list(flair.modalities) == ["flair"]
        assert np.array_equal(flair.modalities["flair"].data, full.modalities["flair"].data)
        assert flair.label is None
        assert flair.dims == full.dims and flair.spacing == full.spacing
        with_seg = nifti.load_case(tmp_path, "sub1", decode=("flair", "seg"))
        assert np.array_equal(with_seg.label.labels, full.label.labels)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_read_header_checks_payload_length(self, tmp_path, suffix):
        buf = nifti.write_volume(make_volume())
        path = tmp_path / f"v{suffix}"
        nifti._write_file(path, [buf])
        assert nifti.read_header(path).dims == (4, 4, 4)
        nifti._write_file(path, [buf[:-1]])
        with pytest.raises(TruncatedDataError):
            nifti.read_header(path)

    def test_iter_case_files_streams_in_load_case_order(self, tmp_path):
        self.write_case(tmp_path, case_id="a", with_seg=True)
        self.write_case(tmp_path, case_id="b")
        items = list(nifti.iter_case_files(nifti.case_paths([(tmp_path, "a"), (tmp_path, "b")])))
        assert [(c, n) for c, n, _ in items] == (
            [("a", n) for n in nifti.CASE_FILES] + [("b", n) for n in nifti.MODALITIES]
        )
        case = nifti.load_case(tmp_path, "a")
        for _, name, item in items[:4]:
            assert np.array_equal(item.data, case.modalities[name].data)
        assert np.array_equal(items[4][2].labels, case.label.labels)

    @pytest.mark.parametrize("name", ["t1ce", "flair", "seg"])
    def test_iter_case_files_checks_each_file_against_the_first(self, tmp_path, name):
        self.write_case(tmp_path, case_id="a", with_seg=True)
        self.write_case(tmp_path, case_id="b", dims=(5, 4, 4), with_seg=True)
        (tmp_path / f"b-{name}.nii").write_bytes((tmp_path / f"a-{name}.nii").read_bytes())
        stream = nifti.iter_case_files(nifti.case_paths([(tmp_path, "a"), (tmp_path, "b")]))
        seen = []
        with pytest.raises(AlignmentError, match=f"b-{name}.nii: case b: "):
            for case_id, file_name, _ in stream:
                seen.append((case_id, file_name))
        first_bad = nifti.CASE_FILES.index(name)
        assert seen == [("a", n) for n in nifti.CASE_FILES] + [
            ("b", n) for n in nifti.CASE_FILES[:first_bad]
        ]

    def test_read_ahead_yields_every_item_and_joins_its_thread(self, tmp_path):
        self.write_case(tmp_path, case_id="a", with_seg=True)
        self.write_case(tmp_path, case_id="b")
        cases = nifti.case_paths([(tmp_path, "a"), (tmp_path, "b")])
        baseline = threading.active_count()
        got = list(nifti.read_ahead(nifti.iter_case_files(cases)))
        want = list(nifti.iter_case_files(cases))
        assert [(c, n) for c, n, _ in got] == [(c, n) for c, n, _ in want]
        assert np.array_equal(got[-1][2].data, want[-1][2].data)
        assert threading.active_count() == baseline

        def failing():
            yield 1
            raise AlignmentError("bad second item")

        seen = []
        with pytest.raises(AlignmentError, match="bad second item"):
            for item in nifti.read_ahead(failing()):
                seen.append(item)
        assert seen == [1]
        assert threading.active_count() == baseline

    def test_list_case_ids(self, tmp_path):
        self.write_case(tmp_path, case_id="b")
        self.write_case(tmp_path, case_id="a")
        assert nifti.list_case_ids(tmp_path) == ["a", "b"]


def byteswapped_file(buf: bytes, dtype) -> bytes:
    """`buf` with its header and payload written big-endian."""
    header = np.frombuffer(buf[: nifti.HEADER_SIZE], dtype=nifti._header_dtype("<"))
    payload = np.frombuffer(buf[nifti.DEFAULT_VOX_OFFSET :], dtype=np.dtype(dtype))
    pad = buf[nifti.HEADER_SIZE : nifti.DEFAULT_VOX_OFFSET]
    return header.byteswap().tobytes() + pad + payload.byteswap().tobytes()


class TestBlockedTranspose:
    """Decodes and encodes copy in blocks, with numpy's one-shot copies' arrays and bytes."""

    @pytest.fixture(params=[3, nifti._TRANSPOSE_BLOCK], ids=["block-3", "default-block"],
                    autouse=True)
    def block(self, request, monkeypatch):
        monkeypatch.setattr(nifti, "_TRANSPOSE_BLOCK", request.param)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (17, 3, 33), (33, 240, 5)],
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize(
        "kind", ["uint8", "int16", "scaled-int16", "float32", "big-endian-int16",
                 "big-endian-float32"],
    )
    def test_decode_and_encode_equal_numpy_copies(self, shape, kind):
        rng = np.random.default_rng(sum(shape))
        code = {"uint8": 2, "float32": 16}.get(kind.removeprefix("big-endian-"), 4)
        dtype = {2: np.uint8, 4: np.int16, 16: np.float32}[code]
        if code == 16:
            data = rng.normal(size=shape).astype(dtype)
        else:
            data = rng.integers(0, 4 if code == 2 else 3000, size=shape).astype(dtype)
        header, payload = nifti._encode(data, (1.0, 1.0, 1.0), code)
        assert payload.flags.c_contiguous
        assert payload.tobytes() == np.ascontiguousarray(data.T).tobytes()
        buf = header + payload.tobytes()
        if kind == "scaled-int16":
            buf = scaled(buf, 0.5, -3.25)
        if kind.startswith("big-endian"):
            buf = byteswapped_file(buf, dtype)
        order = ">" if kind.startswith("big-endian") else "<"
        raw = np.frombuffer(buf, dtype=np.dtype(dtype).newbyteorder(order),
                            offset=nifti.DEFAULT_VOX_OFFSET).reshape(shape, order="F")
        want = np.array(raw, dtype=np.float32, order="C")
        if kind == "scaled-int16":
            want *= np.float32(0.5)
            want += np.float32(-3.25)
        got = nifti.read_volume(buf).data
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        if code == 2:
            labels = nifti.read_mask(buf).labels
            assert labels.flags.c_contiguous
            assert np.array_equal(labels, np.array(raw, order="C"))


def old_encode(data: np.ndarray, spacing, code: int) -> bytes:
    """Reference encode: the whole file in one buffer, its payload one
    transposed copy of the grid, as written before payloads streamed."""
    hdr = np.zeros(1, dtype=nifti._header_dtype("<"))[0]
    hdr["sizeof_hdr"] = nifti.HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"][:] = [3, *data.shape, 1, 1, 1, 1]
    hdr["datatype"] = code
    hdr["bitpix"] = {2: 8, 4: 16, 16: 32}[code]
    hdr["pixdim"][:] = [1.0, *spacing, 0.0, 0.0, 0.0, 0.0]
    hdr["vox_offset"] = float(nifti.DEFAULT_VOX_OFFSET)
    hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2
    hdr["magic"] = nifti.MAGIC_SINGLE
    pad = b"\x00" * (nifti.DEFAULT_VOX_OFFSET - nifti.HEADER_SIZE)
    return hdr.tobytes() + pad + np.ascontiguousarray(data.T).tobytes()


def old_load(path) -> np.ndarray:
    """Reference read: the whole file inflated into one buffer, then decoded
    by the whole-buffer decoder."""
    buf = path.read_bytes()
    return old_read_volume(gzip.decompress(buf) if path.suffix == ".gz" else buf)


class TestStreamedIO:
    """Files are read and written a block of last-axis planes at a time; the
    bytes and grids equal those of the whole-buffer reader and writer."""

    PLANE_BYTES = 7 * 5 * 4  # one plane of a 7x5 float32 grid

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # blocks of 3 float32, 6 int16 or 12 uint8 planes: a depth of 10
        # ends in a short block of float32 or int16 planes
        monkeypatch.setattr(nifti, "_BLOCK_BYTES", 3 * self.PLANE_BYTES)

    @pytest.mark.parametrize("depth", [1, 3, 10])
    @pytest.mark.parametrize(
        "kind", ["uint8", "int16", "float32", "scaled-uint8", "scaled-int16", "scaled-float32"]
    )
    @pytest.mark.parametrize("swap", [False, True], ids=["little", "big"])
    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_decode_and_encode_equal_whole_buffer_copies(
        self, tmp_path, depth, kind, swap, suffix
    ):
        code = {"uint8": 2, "int16": 4, "float32": 16}[kind.removeprefix("scaled-")]
        dtype = {2: np.uint8, 4: np.int16, 16: np.float32}[code]
        rng = np.random.default_rng(depth)
        data = rng.integers(-300 if code != 2 else 0, 256, size=(7, 5, depth))
        data = (data * (1.25 if code == 16 else 1)).astype(dtype)
        spacing = (1.0, 1.5, 2.0)
        buf = old_encode(data, spacing, code)
        chunks = list(nifti._encode(data, spacing, code))
        assert b"".join(chunks) == buf
        # the header, then one chunk per block
        assert len(chunks) == 1 + -(-depth // (3 * 4 // data.itemsize))
        if kind.startswith("scaled"):
            buf = scaled(buf, 0.5, -3.25)
        if swap:
            buf = byteswapped_file(buf, dtype)
        path = tmp_path / f"v{suffix}"
        path.write_bytes(gzip.compress(buf) if suffix == ".nii.gz" else buf)
        want = old_load(path)
        got = nifti.load_volume(path).data
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(nifti.read_volume(buf).data.view(np.uint32), want.view(np.uint32))
        if kind == "uint8":  # labels are copied out as uint8, not decoded as floats
            labels = data % 4
            buf = old_encode(labels, spacing, code)
            path.write_bytes(gzip.compress(buf) if suffix == ".nii.gz" else buf)
            assert np.array_equal(nifti.load_mask(path).labels, labels)

    @pytest.mark.parametrize("depth", [1, 10])
    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_saved_files_equal_old_encoder(self, tmp_path, depth, suffix):
        vol = make_volume(shape=(7, 5, depth), spacing=(1.0, 1.5, 2.0), seed=depth)
        labels = np.random.default_rng(depth).integers(0, 4, size=(7, 5, depth))
        mask = nifti.SegmentationMask(labels=labels, spacing=(1.0, 1.5, 2.0))
        for obj, want, save in ((vol, old_encode(vol.data, vol.spacing, 16), nifti.save_volume),
                                (mask, old_encode(mask.labels, mask.spacing, 2), nifti.save_mask)):
            save(tmp_path / f"x{suffix}", obj)
            if suffix == ".nii.gz":
                want = gzip.compress(want, mtime=0)
            assert (tmp_path / f"x{suffix}").read_bytes() == want

    @pytest.mark.parametrize("cuts", [[200], [352, 700], [1000, 1001, 1900]],
                             ids=["in-header", "header-and-block", "three"])
    def test_members_with_zero_padding(self, tmp_path, cuts):
        vol = make_volume(shape=(7, 5, 10), seed=5)
        raw = nifti.write_volume(vol)
        bounds = [0, *cuts, len(raw)]
        members = [gzip.compress(raw[a:b]) + bytes(3 * i) for i, (a, b) in
                   enumerate(zip(bounds, bounds[1:]))]
        path = tmp_path / "v.nii.gz"
        path.write_bytes(b"".join(members))
        assert np.array_equal(nifti.load_volume(path).data, vol.data)
        assert nifti.read_header(path).dims == (7, 5, 10)

    @pytest.mark.parametrize("keep", [100, 352, 352 + 140, 352 + 500, -1])
    def test_truncated_nii_names_the_bytes_it_found(self, tmp_path, keep):
        raw = nifti.write_volume(make_volume(shape=(7, 5, 10), seed=6))
        path = tmp_path / "v.nii"
        path.write_bytes(raw[:keep])
        error = HeaderError if len(raw[:keep]) < nifti.HEADER_SIZE else TruncatedDataError
        with pytest.raises(error) as caught:
            nifti.load_volume(path)
        with pytest.raises(error) as caught_header:
            nifti.read_header(path)
        if error is TruncatedDataError:
            got = max(0, len(raw[:keep]) - nifti.DEFAULT_VOX_OFFSET)
            assert str(caught.value) == str(caught_header.value)
            assert str(caught.value).endswith(f"need 1400 bytes at offset 352, got {got}")

    @pytest.mark.parametrize(
        "damage, error",
        [
            (lambda gz: gz[:100], TruncatedDataError),  # inside a block
            (lambda gz: gz[:-6], TruncatedDataError),  # inside the trailer
            (lambda gz: gz[:-8] + bytes([gz[-8] ^ 1]) + gz[-7:], HeaderError),  # CRC
            (lambda gz: gz[:-4] + bytes([gz[-4] ^ 1]) + gz[-3:], HeaderError),  # length
            (lambda gz: gz + bytes(4) + b"\x1f\x8b", TruncatedDataError),  # a second member
        ],
        ids=["block", "trailer", "crc", "length", "second-member"],
    )
    def test_damaged_gzip_of_many_blocks(self, tmp_path, damage, error):
        # incompressible voxels, so a cut early in the file ends the stream
        # inside the payload
        gz = gzip.compress(nifti.write_volume(make_volume(shape=(7, 5, 10), seed=7)))
        path = tmp_path / "v.nii.gz"
        path.write_bytes(damage(gz))
        for read in (nifti.load_volume, nifti.read_header):
            with pytest.raises(error):
                read(path)

    def test_short_payload_in_a_whole_gzip_stream(self, tmp_path):
        raw = nifti.write_volume(make_volume(shape=(7, 5, 10), seed=8))
        path = tmp_path / "v.nii.gz"
        path.write_bytes(gzip.compress(raw[:-100]))
        with pytest.raises(TruncatedDataError, match="got 1300$"):
            nifti.load_volume(path)


class TestStreamedIOMemory:
    """Reading or writing a .nii.gz holds the grid, one block and one
    chunk, not a whole inflated buffer or transposed copy."""

    SHAPE = (96, 96, 64)
    BLOCK = 1 << 18  # seven 36 KiB planes

    # zlib's own state (deflate's window and hash tables take 262 KiB at
    # level 9) and the output of one call
    ZLIB = 384 << 10

    @pytest.fixture
    def volume_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nifti, "_BLOCK_BYTES", self.BLOCK)
        vol = make_volume(shape=self.SHAPE, seed=9)
        path = tmp_path / "v.nii.gz"
        nifti.save_volume(path, vol)
        return vol, path

    def traced_peak(self, work):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = work()
            return tracemalloc.get_traced_memory()[1] - base, result
        finally:
            tracemalloc.stop()

    def test_load_volume(self, volume_file):
        vol, path = volume_file
        peak, back = self.traced_peak(lambda: nifti.load_volume(path))
        assert np.array_equal(back.data, vol.data)
        grid = vol.data.nbytes
        assert peak <= grid + self.BLOCK + 2 * nifti._INFLATE_CHUNK + self.ZLIB, peak / 2**20

    def test_save_volume(self, volume_file, tmp_path):
        vol, path = volume_file
        peak, _ = self.traced_peak(lambda: nifti.save_volume(tmp_path / "w.nii.gz", vol))
        assert (tmp_path / "w.nii.gz").read_bytes() == path.read_bytes()
        assert peak <= self.BLOCK + 2 * nifti._INFLATE_CHUNK + self.ZLIB, peak / 2**20
