"""NIfTI subset: header parsing, round-trips, endianness, case assembly."""

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
        buf = bytearray(nifti._encode(raw, (1.0, 1.0, 1.0), 2))
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
            nifti.read_mask(nifti._encode(labels, (1.0, 1.0, 1.0), 4))

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
        assert case.stack().shape == (4, 4, 4, 4)

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

    def test_list_case_ids(self, tmp_path):
        self.write_case(tmp_path, case_id="b")
        self.write_case(tmp_path, case_id="a")
        assert nifti.list_case_ids(tmp_path) == ["a", "b"]
