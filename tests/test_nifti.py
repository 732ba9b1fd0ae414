"""NIfTI subset: header parsing, round-trips, endianness, case assembly."""

import gzip
import threading

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
        # bytes after each; the short last member's trailer undersizes the
        # output buffer, which must grow
        vol = make_volume(shape=(60, 50, 40), seed=8)
        raw = nifti.write_volume(vol)
        assert len(raw) > 4 * nifti._INFLATE_CHUNK
        parts = [raw[:split], raw[split:]] if split else [raw]
        (tmp_path / "v.nii.gz").write_bytes(b"".join(gzip.compress(p) + bytes(7) for p in parts))
        assert nifti._read_bytes(tmp_path / "v.nii.gz") == raw
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
        nifti._write_file(path, buf)
        assert nifti.read_header(path).dims == (4, 4, 4)
        nifti._write_file(path, buf[:-1])
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
