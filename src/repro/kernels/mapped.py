"""Memory-mapped plane snapshots for out-of-core kernel evaluation.

A :class:`MappedPlaneSet` is the on-disk counterpart of
:class:`~repro.kernels.planes.PlaneSet`: the same ``(k, nwords)``
uint64 matrix, one row per plane, but a plain ndarray view of a
read-only ``mmap`` of a CRC-headered plane file instead of process RAM
(a plain view, not ``np.memmap``, whose subclass dispatch would cost
every kernel operation).
:meth:`repro.kernels.compiler.CompiledKernel.evaluate` accepts either —
evaluation never writes into the plane matrix, so results, rows and
``c_e`` accounting are bit-identical while the OS pages plane words in
and out on demand.  This is what lets a partition's planes leave RAM
entirely (``docs/out_of_core.md``) and still serve queries.

File layout (little-endian)::

    offset 0      magic     8s   b"EBIPLANE"
           8      version   u32  2
           12     width     u32  k (plane rows)
           16     nbits     u64  logical bit length
           24     nwords    u64  words per plane row
           32     payload_crc u32  CRC32 of the matrix bytes
           36     header_crc  u32  CRC32 of bytes [0, 36)
    offset 4096   matrix    width*nwords little-endian u64 words

Version 1 files stored each plane's complement after the ``k`` planes
(``2k`` rows); they are refused at open with
:class:`~repro.errors.CorruptIndexError` — plane files are spill
artefacts, rewritten from the index on the next spill.

The matrix starts at a :data:`~repro.storage.page.PAGE_SIZE_DEFAULT`
boundary so plane words never share an OS page with the header and the
Section 3 page-count model (``ceil(bytes / p)`` per plane row) maps
directly onto real page faults.  The header CRC is verified on every
:meth:`MappedPlaneSet.open`; the payload CRC is verified by
:meth:`MappedPlaneSet.verify` (a full sequential read, so it is opt-in
rather than paid on every fault-in).

>>> import tempfile, os
>>> from repro.bitmap.bitvector import BitVector
>>> from repro.kernels.planes import PlaneSet
>>> planes = PlaneSet.from_vectors(
...     [BitVector.from_bools([True, False, True])], 3
... )
>>> path = os.path.join(tempfile.mkdtemp(), "planes.ebp")
>>> _ = write_plane_file(planes, path)
>>> mapped = MappedPlaneSet.open(path)
>>> (mapped.width, mapped.nbits, mapped.nwords)
(1, 3, 1)
>>> bool((mapped.matrix == planes.matrix).all())
True
>>> mapped.verify()
>>> mapped.close()
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import zlib
from typing import BinaryIO, Optional, Tuple, Union

import numpy as np

from repro.errors import ChecksumError, CorruptIndexError
from repro.kernels.planes import PlaneSet
from repro.storage.page import PAGE_SIZE_DEFAULT

#: Plane-file magic; distinguishes plane files from ``.ebi`` payloads.
PLANE_MAGIC = b"EBIPLANE"

#: On-disk format version (2: ``k`` rows, no stored complements).
PLANE_FORMAT_VERSION = 2

#: Fixed header fields: magic, version, width, nbits, nwords, payload CRC.
_HEADER = struct.Struct("<8sIIQQI")

#: Trailing header CRC32 (of the ``_HEADER`` bytes).
_HEADER_CRC = struct.Struct("<I")

#: Matrix offset — one whole page, so plane words are page-aligned.
PLANE_DATA_OFFSET = PAGE_SIZE_DEFAULT


def write_plane_file(planes: PlaneSet, path: Union[str, os.PathLike]) -> int:
    """Write a dense plane snapshot as a CRC-headered plane file.

    Writes to ``path + ".tmp"`` and atomically renames, fsyncing the
    file first, so readers never observe a torn plane file.  Returns
    the total file size in bytes.
    """
    matrix = np.ascontiguousarray(planes.matrix, dtype=np.uint64)
    payload = matrix.tobytes()
    header = _HEADER.pack(
        PLANE_MAGIC,
        PLANE_FORMAT_VERSION,
        planes.width,
        planes.nbits,
        planes.nwords,
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    header += _HEADER_CRC.pack(zlib.crc32(header) & 0xFFFFFFFF)
    # pid + thread ident: concurrent spills of one partition (two
    # executor workers enforcing the budget at once) must never share
    # a temp file, or the rename publishes a torn header.
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "wb") as handle:
        handle.write(header)
        handle.write(b"\x00" * (PLANE_DATA_OFFSET - len(header)))
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, os.fspath(path))
    return PLANE_DATA_OFFSET + len(payload)


def _read_header(handle: BinaryIO, path: str) -> Tuple[int, int, int, int]:
    """Read and check a plane file's header from ``handle``'s start.

    Returns ``(width, nbits, nwords, payload_crc)``; raises
    :class:`~repro.errors.CorruptIndexError` /
    :class:`~repro.errors.ChecksumError` on a bad header.
    """
    raw = handle.read(_HEADER.size + _HEADER_CRC.size)
    if len(raw) < _HEADER.size + _HEADER_CRC.size:
        raise CorruptIndexError(f"plane file {path!r}: truncated header")
    (stored_crc,) = _HEADER_CRC.unpack_from(raw, _HEADER.size)
    if zlib.crc32(raw[: _HEADER.size]) & 0xFFFFFFFF != stored_crc:
        raise ChecksumError(f"plane file {path!r}: header CRC mismatch")
    magic, version, width, nbits, nwords, payload_crc = _HEADER.unpack_from(
        raw
    )
    if magic != PLANE_MAGIC:
        raise CorruptIndexError(f"plane file {path!r}: bad magic {magic!r}")
    if version != PLANE_FORMAT_VERSION:
        raise CorruptIndexError(
            f"plane file {path!r}: unsupported version {version}"
        )
    return width, nbits, nwords, payload_crc


class MappedPlaneSet:
    """A plane snapshot whose matrix lives in a memory-mapped file.

    Duck-types the :class:`~repro.kernels.planes.PlaneSet` surface the
    kernels consume (``matrix``/``width``/``nbits``/``nwords``/
    ``nbytes``), with the matrix opened read-only — kernels combine
    plane rows into fresh result arrays, so nothing ever writes
    through the map.
    """

    __slots__ = ("matrix", "width", "nbits", "nwords", "path", "_map")

    def __init__(
        self,
        matrix: np.ndarray,
        width: int,
        nbits: int,
        path: str,
        file_map: mmap.mmap,
    ) -> None:
        self.matrix = matrix
        self.width = width
        self.nbits = nbits
        self.nwords = int(matrix.shape[1]) if matrix.ndim == 2 else 0
        self.path = path
        self._map: Optional[mmap.mmap] = file_map

    @classmethod
    def open(cls, path: Union[str, os.PathLike]) -> "MappedPlaneSet":
        """Map an existing plane file read-only.

        Verifies the header CRC and the declared geometry against the
        file size; raises
        :class:`~repro.errors.CorruptIndexError` /
        :class:`~repro.errors.ChecksumError` on mismatch.  The matrix
        payload is *not* read here — pages fault in lazily as kernels
        touch plane rows.
        """
        path = os.fspath(path)
        with open(path, "rb") as handle:
            width, nbits, nwords, _payload_crc = _read_header(handle, path)
            expected = PLANE_DATA_OFFSET + width * nwords * 8
            actual = os.fstat(handle.fileno()).st_size
            if actual < expected:
                raise CorruptIndexError(
                    f"plane file {path!r}: {actual} bytes, need {expected}"
                )
            file_map = mmap.mmap(
                handle.fileno(), expected, access=mmap.ACCESS_READ
            )
        matrix = np.frombuffer(
            file_map,
            dtype="<u8",
            count=width * nwords,
            offset=PLANE_DATA_OFFSET,
        ).reshape(width, nwords)
        return cls(matrix, width, nbits, path, file_map)

    def nbytes(self) -> int:
        """Mapped matrix bytes (what a dense snapshot would occupy in
        RAM; the resident subset is whatever the OS has paged in)."""
        return self.width * self.nwords * 8

    def verify(self) -> None:
        """Full header and payload CRC check (sequential read of the
        whole file), plus the header's geometry against this map's.

        Raises :class:`~repro.errors.ChecksumError` or
        :class:`~repro.errors.CorruptIndexError` on mismatch.
        """
        with open(self.path, "rb") as handle:
            width, _nbits, nwords, payload_crc = _read_header(
                handle, self.path
            )
            if (width, nwords) != (self.width, self.nwords):
                raise CorruptIndexError(
                    f"plane file {self.path!r}: header declares "
                    f"{width}x{nwords} words, mapped "
                    f"{self.width}x{self.nwords}"
                )
            handle.seek(PLANE_DATA_OFFSET)
            measured = 0
            remaining = width * nwords * 8
            while remaining:
                chunk = handle.read(min(remaining, 1 << 20))
                if not chunk:
                    raise CorruptIndexError(
                        f"plane file {self.path!r}: truncated payload"
                    )
                measured = zlib.crc32(chunk, measured)
                remaining -= len(chunk)
        if measured & 0xFFFFFFFF != payload_crc:
            raise ChecksumError(
                f"plane file {self.path!r}: payload CRC mismatch"
            )

    def materialize(self) -> PlaneSet:
        """Copy the mapped matrix into a dense in-RAM ``PlaneSet``.

        Used when a partition is promoted back to the dense tier; do
        not call per query (EBI108 flags full materialisation of
        mapped planes inside loops).
        """
        return PlaneSet(
            np.array(self.matrix, dtype=np.uint64, copy=True),
            self.width,
            self.nbits,
        )

    def close(self) -> None:
        """Release the underlying map (the OS unmaps once no array
        views remain)."""
        file_map, self._map = self._map, None
        self.matrix = np.empty((self.width, 0), dtype=np.uint64)
        if file_map is not None:
            try:
                file_map.close()
            except BufferError:
                # Live views keep the map alive; the GC finishes it.
                pass

    def __repr__(self) -> str:
        return (
            f"MappedPlaneSet(width={self.width}, nbits={self.nbits}, "
            f"nwords={self.nwords}, path={self.path!r})"
        )
