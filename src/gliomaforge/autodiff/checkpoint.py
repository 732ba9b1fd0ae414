"""Flat binary checkpoint format.

Layout, all little-endian: 8-byte magic "GFCK0001", then one record per
array: uint32 name length, utf-8 name, uint32 rank, uint32 dims, float32
payload in C order. Record order is preserved round-trip.
"""

import struct

import numpy as np

from ..errors import CheckpointError

MAGIC = b"GFCK0001"


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC]
    for name, arr in arrays.items():
        payload = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", payload.ndim))
        chunks.append(struct.pack(f"<{payload.ndim}I", *payload.shape))
        chunks.append(payload.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:8]!r}")
    arrays: dict[str, np.ndarray] = {}
    offset = 8

    def take(n):
        """Offset of the next n bytes, checked against the end of the file."""
        nonlocal offset
        if offset + n > len(blob):
            raise CheckpointError(f"{path}: truncated at byte {offset}")
        offset += n
        return offset - n

    def unpack(fmt):
        return struct.unpack_from(fmt, blob, take(struct.calcsize(fmt)))

    while offset < len(blob):
        (name_len,) = unpack("<I")
        start = take(name_len)
        name = blob[start:offset].decode("utf-8")
        (rank,) = unpack("<I")
        shape = unpack(f"<{rank}I")
        count = int(np.prod(shape)) if rank else 1
        # a view of the file's bytes, then the one copy the array owns
        payload = np.frombuffer(blob, "<f4", count, take(4 * count))
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate record {name!r}")
        arrays[name] = payload.reshape(shape).copy()
    return arrays
