"""Packed plane matrices consumed by compiled retrieval kernels.

A :class:`PlaneSet` lays the ``k`` bit-plane vectors of an encoded
bitmap index out as one contiguous ``(k, nwords)`` ``uint64`` matrix:
row ``i`` holds plane ``B_i``'s words.  It is the only copy of an
index's folded rows — the ``k`` vectors of ``n`` bits the paper's
Section 3 space model charges.  Negations are not stored: a kernel
evaluates a negated literal by De Morgan, ANDing a term's positive
rows with the complement of the OR of its negated rows.

Bits beyond the logical length (the tail of the last word) are zero.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bitmap.bitvector import BitVector
from repro.bitmap.ops import packed_length
from repro.errors import LengthMismatchError


class PlaneSet:
    """The bit planes of one index snapshot, as a dense word matrix.

    Immutable once a reader has taken it: an index writes a rewritten
    folded row into its current plane set only while no lookup holds
    it, and otherwise installs a new one (see ``_take_planes`` in
    :class:`~repro.index.encoded_bitmap.EncodedBitmapIndex`), so it
    never writes into one a lookup may be reading.
    """

    __slots__ = ("matrix", "width", "nbits", "nwords")

    def __init__(self, matrix: np.ndarray, width: int, nbits: int) -> None:
        self.matrix = matrix
        self.width = width
        self.nbits = nbits
        self.nwords = matrix.shape[1] if matrix.ndim == 2 else 0

    @classmethod
    def from_vectors(
        cls, vectors: Sequence[BitVector], nbits: int
    ) -> "PlaneSet":
        """Copy ``k`` plane vectors into a ``(k, nwords)`` matrix.

        ``vectors[i]`` becomes row ``i``.  Every vector must have
        length ``nbits``.
        """
        matrix = np.empty((len(vectors), packed_length(nbits)), np.uint64)
        for i, vector in enumerate(vectors):
            if len(vector) != nbits:
                raise LengthMismatchError(nbits, len(vector))
            matrix[i] = vector.words
        return cls(matrix, len(vectors), nbits)

    def nbytes(self) -> int:
        """Bytes held by the matrix: ``k * nwords * 8``."""
        return int(self.matrix.nbytes)

    def __repr__(self) -> str:
        return (
            f"PlaneSet(width={self.width}, nbits={self.nbits}, "
            f"nwords={self.nwords})"
        )
