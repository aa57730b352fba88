"""Fixed-length bit vector packed into 64-bit words.

``BitVector`` is the unit of storage for every bitmap index in this
library.  The paper measures query cost in "bitmap vectors accessed";
this class is the object being counted.  Bits are addressed little
endian within each word: bit ``j`` of the vector lives in word
``j // 64`` at position ``j % 64``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

import numpy as np

from repro.bitmap.ops import (
    WORD_BITS,
    packed_length,
    popcount_words,
    tail_mask,
    words_from_bools,
)
from repro.errors import InvalidArgumentError, LengthMismatchError


class BitVector:
    """A fixed-length sequence of bits with bulk logical operations.

    Instances are mutable in content (bits may be set/cleared/appended)
    but logical operators (``&``, ``|``, ``^``, ``~``) return new
    vectors, mirroring how a query engine combines read-only index
    vectors into a result vector.

    Parameters
    ----------
    nbits:
        Initial length of the vector.  All bits start cleared.
    """

    __slots__ = ("_words", "_nbits")

    def __init__(self, nbits: int = 0) -> None:
        if nbits < 0:
            raise InvalidArgumentError(f"negative bit length: {nbits}")
        self._nbits = nbits
        self._words = np.zeros(packed_length(nbits), dtype=np.uint64)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_words(cls, words: np.ndarray, nbits: int) -> "BitVector":
        """Wrap an existing word array without copying.

        The array must already be masked so that bits beyond ``nbits``
        are zero; all internal callers guarantee this.
        """
        vec = cls.__new__(cls)
        vec._words = words
        vec._nbits = nbits
        return vec

    @classmethod
    def from_bools(cls, bits: Iterable[bool]) -> "BitVector":
        """Build a vector from an iterable of booleans."""
        words, nbits = words_from_bools(bits)
        return cls._from_words(words, nbits)

    @classmethod
    def from_indices(cls, indices: Iterable[int], nbits: int) -> "BitVector":
        """Build an ``nbits`` vector with the given positions set."""
        vec = cls(nbits)
        vec.set_indices(np.fromiter(indices, dtype=np.int64))
        return vec

    def set_indices(self, indices: np.ndarray) -> None:
        """Set the bits at an integer array of positions (one scatter
        on the word array, however many positions)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= self._nbits:
                raise IndexError("bit index out of range")
            word_idx = idx // WORD_BITS
            bit_idx = (idx % WORD_BITS).astype(np.uint64)
            np.bitwise_or.at(
                self._words, word_idx, np.uint64(1) << bit_idx
            )

    @classmethod
    def ones(cls, nbits: int) -> "BitVector":
        """Build an ``nbits`` vector with every bit set."""
        vec = cls(nbits)
        vec._words[:] = np.uint64(0xFFFFFFFFFFFFFFFF)
        vec._mask_tail()
        return vec

    @classmethod
    def concat(cls, vectors: Iterable["BitVector"]) -> "BitVector":
        """Concatenate vectors end to end into one vector.

        The inputs are handed over: a single vector comes back as is,
        not copied.  Fast path: when every vector but the last is
        word-aligned (a multiple of 64 bits — how :mod:`repro.shard`
        sizes its row-range partitions), the word arrays are
        concatenated directly.  Otherwise the boolean masks are
        joined, which is still a bulk numpy operation.

        >>> left = BitVector.from_bools([True, False])
        >>> right = BitVector.from_bools([True])
        >>> BitVector.concat([left, right]).to_bitstring()
        '101'
        """
        parts = list(vectors)
        if not parts:
            return cls(0)
        if len(parts) == 1:
            return parts[0]
        nbits = sum(part._nbits for part in parts)
        if all(part._nbits % WORD_BITS == 0 for part in parts[:-1]):
            words = np.concatenate([part._words for part in parts])
            return cls._from_words(words, nbits)
        mask = np.concatenate([part.to_mask() for part in parts])
        return cls.from_mask(mask)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "BitVector":
        """Build a vector from a numpy boolean array."""
        mask = np.asarray(mask, dtype=bool)
        nbits = int(mask.size)
        nwords = packed_length(nbits)
        padded = np.zeros(nwords * WORD_BITS, dtype=np.uint8)
        padded[:nbits] = mask
        words = np.packbits(padded, bitorder="little").view(np.uint64)
        return cls._from_words(words.copy(), nbits)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def words(self) -> np.ndarray:
        """The underlying ``uint64`` word array (read-mostly)."""
        return self._words

    def __len__(self) -> int:
        return self._nbits

    def __getitem__(self, j: int) -> bool:
        self._check_index(j)
        word = self._words[j // WORD_BITS]
        return bool((int(word) >> (j % WORD_BITS)) & 1)

    def __setitem__(self, j: int, value: bool) -> None:
        self._check_index(j)
        mask = np.uint64(1) << np.uint64(j % WORD_BITS)
        if value:
            self._words[j // WORD_BITS] |= mask
        else:
            self._words[j // WORD_BITS] &= ~mask

    def __iter__(self) -> Iterator[bool]:
        # Expand word-at-a-time via unpackbits rather than testing one
        # bit per __getitem__ call; ~30x faster on long vectors.
        for bit in self.to_mask():
            yield bool(bit)

    def iter_set_bits(self) -> Iterator[int]:
        """Positions of set bits, ascending, skipping zero words.

        Streams without materialising the full boolean mask: only
        non-zero words are visited, and set bits are extracted per
        word with the usual lowest-set-bit trick.  Use
        :meth:`indices` when a materialised array is acceptable.
        """
        words = self._words
        for word_index in np.nonzero(words)[0]:
            base = int(word_index) * WORD_BITS
            word = int(words[word_index])
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._nbits == other._nbits and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:
        return hash((self._nbits, self._words.tobytes()))

    def __repr__(self) -> str:
        if self._nbits <= 64:
            bits = "".join("1" if b else "0" for b in self)
            return f"BitVector({bits!r})"
        return f"BitVector(nbits={self._nbits}, count={self.count()})"

    def _check_index(self, j: int) -> None:
        if not 0 <= j < self._nbits:
            raise IndexError(
                f"bit index {j} out of range for length {self._nbits}"
            )

    def _mask_tail(self) -> None:
        if self._words.size:
            self._words[-1] &= tail_mask(self._nbits)

    def _check_same_length(self, other: "BitVector") -> None:
        if self._nbits != other._nbits:
            raise LengthMismatchError(self._nbits, other._nbits)

    # ------------------------------------------------------------------
    # logical operations (return new vectors)
    # ------------------------------------------------------------------
    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector._from_words(self._words & other._words, self._nbits)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector._from_words(self._words | other._words, self._nbits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector._from_words(self._words ^ other._words, self._nbits)

    def __invert__(self) -> "BitVector":
        # ~self._words already yields a fresh array; wrap it directly
        # (one allocation) and re-mask the tail bits it flipped.
        inverted = BitVector._from_words(~self._words, self._nbits)
        inverted._mask_tail()
        return inverted

    def __iand__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        np.bitwise_and(self._words, other._words, out=self._words)
        return self

    def __ior__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        np.bitwise_or(self._words, other._words, out=self._words)
        return self

    def __ixor__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        np.bitwise_xor(self._words, other._words, out=self._words)
        return self

    def andnot(self, other: "BitVector") -> "BitVector":
        """``self AND (NOT other)`` without materialising the negation."""
        self._check_same_length(other)
        return BitVector._from_words(
            self._words & ~other._words, self._nbits
        )

    def iandnot(self, other: "BitVector") -> "BitVector":
        """In-place ``self &= ~other`` without a ``BitVector`` temporary.

        The negated-literal workhorse of ``evaluate_dnf``: accumulating
        a term touches only word arrays, never intermediate vectors.
        """
        self._check_same_length(other)
        np.bitwise_and(self._words, ~other._words, out=self._words)
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Number of set bits (population count)."""
        return popcount_words(self._words)

    def any(self) -> bool:
        """True if at least one bit is set."""
        return bool(np.any(self._words))

    def all(self) -> bool:
        """True if every bit (of the logical length) is set."""
        if self._nbits == 0:
            return True
        full = np.uint64(0xFFFFFFFFFFFFFFFF)
        if self._words.size > 1 and not np.all(self._words[:-1] == full):
            return False
        return self._words[-1] == tail_mask(self._nbits)

    def density(self) -> float:
        """Fraction of set bits; the paper's (1 - sparsity)."""
        if self._nbits == 0:
            return 0.0
        return self.count() / self._nbits

    def sparsity(self) -> float:
        """Fraction of clear bits, as used in the paper's Section 3.1."""
        return 1.0 - self.density()

    def indices(self) -> np.ndarray:
        """Positions of set bits, ascending, as an int64 array."""
        return np.flatnonzero(self.to_mask()).astype(np.int64, copy=False)

    def to_mask(self) -> np.ndarray:
        """Expand to a numpy boolean array of length ``len(self)``."""
        bits = np.unpackbits(
            self._words.view(np.uint8), bitorder="little"
        )
        return bits[: self._nbits].view(bool)

    def to_bitstring(self) -> str:
        """Render as a '0'/'1' string, bit 0 first."""
        return "".join("1" if b else "0" for b in self)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, value: bool) -> None:
        """Append one bit at the end, growing the vector by one."""
        j = self._nbits
        self.resize(j + 1)
        if value:
            self[j] = True

    def extend(self, bits: Iterable[bool]) -> None:
        """Append each bit of ``bits`` in order."""
        for bit in bits:
            self.append(bit)

    def resize(self, nbits: int) -> None:
        """Grow or shrink to ``nbits`` bits.

        New bits are cleared; when shrinking, truncated bits are
        discarded and the tail is re-masked.
        """
        if nbits < 0:
            raise InvalidArgumentError(f"negative bit length: {nbits}")
        nwords = packed_length(nbits)
        if nwords != self._words.size:
            resized = np.zeros(nwords, dtype=np.uint64)
            keep = min(nwords, self._words.size)
            resized[:keep] = self._words[:keep]
            self._words = resized
        self._nbits = nbits
        self._mask_tail()

    def clear(self) -> None:
        """Clear every bit, keeping the length."""
        self._words[:] = 0

    def copy(self) -> "BitVector":
        """Deep copy."""
        return BitVector._from_words(self._words.copy(), self._nbits)

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Bytes of packed storage, i.e. ``len(self)/8`` rounded to words."""
        return int(self._words.nbytes)


def select_rows(vector: BitVector) -> List[int]:
    """Row ids selected by a result vector, as a plain list."""
    return [int(j) for j in vector.indices()]
