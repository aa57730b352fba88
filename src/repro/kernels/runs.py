"""Compressed plane snapshots for run-at-a-time kernel evaluation.

A :class:`CompressedPlaneSet` is the word-aligned-run counterpart of
:class:`~repro.kernels.planes.PlaneSet`: the ``k`` bit planes of an
encoded bitmap index, each stored as a
:class:`~repro.bitmap.wah.WordAlignedBitmap` instead of a dense matrix
row.  :meth:`repro.kernels.compiler.CompiledKernel.evaluate` accepts
either snapshot type and produces bit-identical results with identical
``c_e`` accounting; the compressed path combines planes
segment-at-a-time — fill runs short-circuit in O(1) per segment and
literal blocks fall back to vectorised word operations.  Negated
literals are evaluated by De Morgan, as on the packed matrix: a
complement keeps the segmentation, so it costs one pass over the
segments of the OR of a term's negated planes.

An index keeps one copy of its bits (a ``PlaneSet``), so a compressed
snapshot is built on demand from
:meth:`~repro.index.encoded_bitmap.EncodedBitmapIndex.vector` — the
compression bench and demo do exactly that.

>>> from repro.bitmap.bitvector import BitVector
>>> vector = BitVector.from_bools([True, False, True])
>>> planes = CompressedPlaneSet.from_vectors([vector], 3)
>>> planes.width, planes.nbits
(1, 3)
>>> planes.plane(0).to_bitvector().to_bitstring()
'101'
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.bitmap.bitvector import BitVector
from repro.bitmap.wah import WordAlignedBitmap
from repro.errors import LengthMismatchError


class CompressedPlaneSet:
    """Bit planes of one index snapshot, as word-aligned run bitmaps.

    Immutable, like ``PlaneSet``: build a new snapshot when the
    underlying data changes rather than mutating one in place.
    """

    __slots__ = ("planes", "width", "nbits", "nwords")

    def __init__(
        self,
        planes: Tuple[WordAlignedBitmap, ...],
        nbits: int,
    ) -> None:
        self.planes = planes
        self.width = len(planes)
        self.nbits = nbits
        self.nwords = planes[0].nwords if planes else 0

    @classmethod
    def from_vectors(
        cls, vectors: Sequence[BitVector], nbits: int
    ) -> "CompressedPlaneSet":
        """Compress ``k`` plane vectors; ``vectors[i]`` becomes plane
        ``i``.  Every vector must have length ``nbits``."""
        for vector in vectors:
            if len(vector) != nbits:
                raise LengthMismatchError(nbits, len(vector))
        return cls(
            tuple(WordAlignedBitmap.from_bitvector(v) for v in vectors),
            nbits,
        )

    def plane(self, index: int) -> WordAlignedBitmap:
        """Compressed plane ``B_index``."""
        return self.planes[index]

    def nbytes(self) -> int:
        """Serialized bytes across the ``k`` planes."""
        return sum(plane.nbytes() for plane in self.planes)

    def packed_nbytes(self) -> int:
        """What a dense :class:`~repro.kernels.planes.PlaneSet` of the
        same shape would occupy — the compression bench's baseline."""
        return self.width * self.nwords * 8

    def __repr__(self) -> str:
        return (
            f"CompressedPlaneSet(width={self.width}, nbits={self.nbits}, "
            f"nwords={self.nwords}, nbytes={self.nbytes()})"
        )
