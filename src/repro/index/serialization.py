"""Serialization of encoded bitmap indexes.

A deployed warehouse rebuilds indexes rarely; persisting them avoids
the O(n * k) build scan.  The format (version 2) is self-describing
and *checked* end to end:

* magic ``EBI2``, a binary version/length/CRC32 preamble,
* a JSON header (column, width, modes, row count, mapping entries with
  sentinel markers) protected by its own CRC32,
* the raw little-endian word arrays of the k bitmap vectors, each
  framed with a length and a CRC32.

Any truncation, bit flip or structural inconsistency (non-bijective
mapping, codes outside the width, VOID off code 0, wrong vector
length) raises a typed :class:`~repro.errors.CorruptIndexError`
carrying the byte offset and field that failed — never a raw
``KeyError``/``struct.error``/JSON crash, and never a silently wrong
index.  Version-1 payloads (magic ``EBIX``, no checksums) are still
readable behind the same error contract.

Version 2 payloads carry a ``kind`` tag.  ``"encoded"`` (the default
when absent, for payloads written before the tag existed) is the
encoded bitmap index above; ``"compressed"`` persists a
:class:`~repro.index.compressed.CompressedBitmapIndex` as one
word-aligned token stream (:meth:`~repro.bitmap.wah.WordAlignedBitmap.tokens`)
per value vector plus one for the NULL vector — every section framed
with the same length + CRC32, so ``repro fsck`` audits compressed
payloads exactly like encoded ones.

``dumps``/``loads`` work on bytes; ``save``/``load`` wrap them with a
file path.  ``save`` is atomic: write-temp + verify + rename, so a
crashed save never clobbers the previous good index.  Loading binds
the index to a table the caller supplies — the table must have the
same row count the index was saved with.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.bitmap.bitvector import BitVector
from repro.bitmap.rle import RunLengthBitmap
from repro.bitmap.wah import WordAlignedBitmap
from repro.encoding.mapping import NULL, VOID, MappingTable
from repro.errors import (
    CorruptIndexError,
    EncodingError,
    IndexBuildError,
    InvalidArgumentError,
)
from repro.index.compressed import CompressedBitmapIndex
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.table.table import Table

#: Index types with a payload format, keyed by their header tag.
SerializableIndex = Union[EncodedBitmapIndex, CompressedBitmapIndex]

#: Version-2 container magic (checksummed format).
MAGIC = b"EBI2"
#: Version-1 magic, still accepted by :func:`loads` (no checksums).
MAGIC_V1 = b"EBIX"
VERSION = 2

#: Binary preamble after the magic: u16 version, u32 header length,
#: u32 header CRC32.
_PREAMBLE = struct.Struct("<HII")
#: Per-vector frame: u32 payload length, u32 payload CRC32.
_SECTION = struct.Struct("<II")

_SENTINEL_TO_TAG = {VOID: "__void__", NULL: "__null__"}
_TAG_TO_SENTINEL = {tag: obj for obj, tag in _SENTINEL_TO_TAG.items()}

_MODES = ("encode", "vector")


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _encode_value(value: Any) -> List:
    """JSON-safe tagged representation of a mapped value."""
    if value in _SENTINEL_TO_TAG:
        return ["sentinel", _SENTINEL_TO_TAG[value]]
    if isinstance(value, bool):
        return ["bool", value]
    if isinstance(value, int):
        return ["int", value]
    if isinstance(value, float):
        return ["float", value]
    if isinstance(value, str):
        return ["str", value]
    raise IndexBuildError(
        f"cannot serialise mapping value of type {type(value).__name__}"
    )


def _decode_value(tagged: Any) -> Any:
    if (
        not isinstance(tagged, (list, tuple))
        or len(tagged) != 2
        or not isinstance(tagged[0], str)
    ):
        raise CorruptIndexError(
            f"malformed mapping entry {tagged!r}", field="mapping"
        )
    kind, payload = tagged
    if kind == "sentinel":
        try:
            return _TAG_TO_SENTINEL[payload]
        except (KeyError, TypeError):
            raise CorruptIndexError(
                f"unknown sentinel tag {payload!r}", field="mapping"
            ) from None
    if kind == "bool":
        return bool(payload)
    if kind in ("int", "float", "str"):
        caster = {"int": int, "float": float, "str": str}[kind]
        try:
            return caster(payload)
        except (TypeError, ValueError):
            raise CorruptIndexError(
                f"mapping value {payload!r} does not decode as {kind}",
                field="mapping",
            ) from None
    raise CorruptIndexError(
        f"unknown value tag {kind!r}", field="mapping"
    )


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def dumps(index: SerializableIndex) -> bytes:
    """Serialise an index to (checksummed) bytes.

    Dispatches on the index type: encoded bitmap indexes store their
    ``k`` packed vectors, run-length compressed indexes store one
    word-aligned token stream per value vector.
    """
    if isinstance(index, CompressedBitmapIndex):
        return _dumps_compressed(index)
    header = {
        "version": VERSION,
        "kind": "encoded",
        "column": index.column_name,
        "width": index.width,
        "void_mode": index.void_mode,
        "null_mode": index.null_mode,
        "rows": len(index.table),
        "mapping": [
            [_encode_value(value), code]
            for value, code in index.mapping.items()
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [
        MAGIC,
        _PREAMBLE.pack(VERSION, len(header_bytes), _crc(header_bytes)),
        header_bytes,
    ]
    for i in range(index.width):
        words = index.vector(i).words
        raw = words.astype("<u8").tobytes()
        parts.append(_SECTION.pack(len(raw), _crc(raw)))
        parts.append(raw)
    return b"".join(parts)


def _dumps_compressed(index: CompressedBitmapIndex) -> bytes:
    """Compressed-index payload: WAH token sections, one per value.

    Values are serialised in a deterministic order (their tagged JSON
    form); the NULL vector is always the final section.  Token streams
    are self-delimiting (:meth:`WordAlignedBitmap.from_tokens`
    re-validates header words and bit coverage), so corruption is
    caught both by the CRC frame and by structural decode.
    """
    tagged = sorted(
        (_encode_value(value), value)
        for value in index._vectors
    )
    header = {
        "version": VERSION,
        "kind": "compressed",
        "column": index.column_name,
        "rows": len(index.table),
        "values": [entry for entry, _ in tagged],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [
        MAGIC,
        _PREAMBLE.pack(VERSION, len(header_bytes), _crc(header_bytes)),
        header_bytes,
    ]
    planes = [index._vectors[value] for _, value in tagged]
    planes.append(index._null_vector)
    for compressed in planes:
        tokens = compressed.to_word_aligned().tokens()
        raw = tokens.astype("<u8").tobytes()
        parts.append(_SECTION.pack(len(raw), _crc(raw)))
        parts.append(raw)
    return b"".join(parts)


# ----------------------------------------------------------------------
# parsing (table-free) — shared by loads() and the fsck CLI
# ----------------------------------------------------------------------
@dataclass
class ParsedIndex:
    """A structurally validated payload, not yet bound to a table.

    ``kind`` selects which halves are populated: ``"encoded"``
    payloads carry ``mapping`` and the packed ``vectors``;
    ``"compressed"`` payloads carry ``values`` plus the word-aligned
    ``compressed`` planes (the last one is the NULL vector).
    """

    version: int
    header: Dict[str, Any]
    kind: str = "encoded"
    mapping: Optional[MappingTable] = None
    vectors: List[np.ndarray] = field(default_factory=list)
    values: List[Any] = field(default_factory=list)
    compressed: List[WordAlignedBitmap] = field(default_factory=list)


def _slice(
    payload: bytes, offset: int, length: int, field: str
) -> bytes:
    if length < 0 or offset + length > len(payload):
        raise CorruptIndexError(
            f"payload truncated: {field} needs {length} bytes at "
            f"offset {offset}, have {len(payload) - offset}",
            offset=offset,
            field=field,
        )
    return payload[offset : offset + length]


def _header_field(
    header: Dict[str, Any], name: str, kind: type, *extra: type
) -> Any:
    try:
        value = header[name]
    except KeyError:
        raise CorruptIndexError(
            f"header is missing required field {name!r}", field=name
        ) from None
    kinds: Tuple[type, ...] = (kind, *extra)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise CorruptIndexError(
            f"header field {name!r} has type "
            f"{type(value).__name__}, expected "
            f"{'/'.join(k.__name__ for k in kinds)}",
            field=name,
        )
    return value


def _build_mapping(header: Dict[str, Any]) -> MappingTable:
    """Reconstruct and structurally validate the mapping table."""
    width = _header_field(header, "width", int)
    if width < 1:
        raise CorruptIndexError(
            f"width must be >= 1, got {width}", field="width"
        )
    entries = _header_field(header, "mapping", list)
    mapping = MappingTable(width=width, reserve_void_zero=False)
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise CorruptIndexError(
                f"malformed mapping entry {entry!r}", field="mapping"
            )
        tagged, code = entry
        if not isinstance(code, int) or isinstance(code, bool):
            raise CorruptIndexError(
                f"mapping code {code!r} is not an integer",
                field="mapping",
            )
        value = _decode_value(tagged)
        try:
            # One-to-one and width bounds enforced by assign():
            # duplicates or out-of-range codes are corruption here.
            mapping.assign(value, code)
        except EncodingError as exc:
            raise CorruptIndexError(
                f"mapping is not a valid bijection: {exc}",
                field="mapping",
            ) from exc
    void_mode = _header_field(header, "void_mode", str)
    if void_mode == "encode" and VOID not in mapping:
        raise CorruptIndexError(
            "void_mode='encode' but VOID is not in the mapping",
            field="mapping",
        )
    if VOID in mapping and mapping.encode(VOID) != 0:
        raise CorruptIndexError(
            "Theorem 2.1 violated: VOID is mapped but not on code 0",
            field="mapping",
        )
    return mapping


def parse(payload: bytes) -> ParsedIndex:
    """Structurally validate a payload without binding it to a table.

    Verifies the magic, version, header CRC, header schema, mapping
    bijectivity (and Theorem 2.1's code-0 reservation), and each
    vector section's length and CRC.  Raises
    :class:`~repro.errors.CorruptIndexError` on the first violation.
    """
    magic = _slice(payload, 0, 4, "magic")
    if magic == MAGIC_V1:
        return _parse_v1(payload)
    if magic != MAGIC:
        raise CorruptIndexError(
            f"bad magic {magic!r}: not an EBI index payload",
            offset=0,
            field="magic",
        )
    offset = 4
    preamble = _slice(payload, offset, _PREAMBLE.size, "preamble")
    version, header_len, header_crc = _PREAMBLE.unpack(preamble)
    offset += _PREAMBLE.size
    if version != VERSION:
        raise CorruptIndexError(
            f"unsupported EBI index version {version}",
            offset=4,
            field="version",
        )
    header_bytes = _slice(payload, offset, header_len, "header")
    actual_crc = _crc(header_bytes)
    if actual_crc != header_crc:
        raise CorruptIndexError(
            f"header checksum mismatch: stored {header_crc:#010x}, "
            f"computed {actual_crc:#010x}",
            offset=offset,
            field="header",
        )
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptIndexError(
            f"header does not decode as JSON: {exc}",
            offset=offset,
            field="header",
        ) from exc
    offset += header_len
    if not isinstance(header, dict):
        raise CorruptIndexError(
            "header is not a JSON object", offset=4, field="header"
        )

    rows = _header_field(header, "rows", int)
    if rows < 0:
        raise CorruptIndexError(
            f"negative row count {rows}", field="rows"
        )
    _header_field(header, "column", str)
    kind = header.get("kind", "encoded")
    if kind == "compressed":
        return _parse_compressed(payload, header, offset, rows)
    if kind != "encoded":
        raise CorruptIndexError(
            f"unknown payload kind {kind!r}", field="kind"
        )
    for mode_field in ("void_mode", "null_mode"):
        if _header_field(header, mode_field, str) not in _MODES:
            raise CorruptIndexError(
                f"{mode_field} must be one of {_MODES}",
                field=mode_field,
            )
    mapping = _build_mapping(header)

    vectors: List[np.ndarray] = []
    expected_len = ((rows + 63) // 64) * 8
    for i in range(mapping.width):
        section_field = f"vector[{i}]"
        frame = _slice(payload, offset, _SECTION.size, section_field)
        raw_len, raw_crc = _SECTION.unpack(frame)
        offset += _SECTION.size
        if raw_len != expected_len:
            raise CorruptIndexError(
                f"vector {i} holds {raw_len} bytes, expected "
                f"{expected_len} for {rows} rows",
                offset=offset,
                field=f"{section_field}.length",
            )
        raw = _slice(payload, offset, raw_len, section_field)
        actual = _crc(raw)
        if actual != raw_crc:
            raise CorruptIndexError(
                f"vector {i} checksum mismatch: stored "
                f"{raw_crc:#010x}, computed {actual:#010x}",
                offset=offset,
                field=section_field,
            )
        offset += raw_len
        vectors.append(np.frombuffer(raw, dtype="<u8").astype(np.uint64))
    if offset != len(payload):
        raise CorruptIndexError(
            f"{len(payload) - offset} trailing bytes after the last "
            "vector section",
            offset=offset,
            field="trailer",
        )
    return ParsedIndex(
        version=VERSION, header=header, mapping=mapping, vectors=vectors
    )


def _parse_compressed(
    payload: bytes, header: Dict[str, Any], offset: int, rows: int
) -> ParsedIndex:
    """Validate a ``kind="compressed"`` payload's value list and the
    word-aligned token section per value (NULL vector last)."""
    entries = _header_field(header, "values", list)
    values: List[Any] = []
    seen_reprs = set()
    for entry in entries:
        value = _decode_value(entry)
        marker = (type(value).__name__, repr(value))
        if marker in seen_reprs:
            raise CorruptIndexError(
                f"duplicate value {value!r} in compressed payload",
                field="values",
            )
        seen_reprs.add(marker)
        values.append(value)
    planes: List[WordAlignedBitmap] = []
    for i in range(len(values) + 1):
        section_field = (
            f"value[{i}]" if i < len(values) else "null-vector"
        )
        frame = _slice(payload, offset, _SECTION.size, section_field)
        raw_len, raw_crc = _SECTION.unpack(frame)
        offset += _SECTION.size
        if raw_len % 8 != 0:
            raise CorruptIndexError(
                f"section {section_field} holds {raw_len} bytes, not "
                "a whole number of 64-bit tokens",
                offset=offset,
                field=f"{section_field}.length",
            )
        raw = _slice(payload, offset, raw_len, section_field)
        actual = _crc(raw)
        if actual != raw_crc:
            raise CorruptIndexError(
                f"section {section_field} checksum mismatch: stored "
                f"{raw_crc:#010x}, computed {actual:#010x}",
                offset=offset,
                field=section_field,
            )
        offset += raw_len
        tokens = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
        try:
            planes.append(WordAlignedBitmap.from_tokens(tokens, rows))
        except InvalidArgumentError as exc:
            raise CorruptIndexError(
                f"section {section_field} is not a valid word-aligned "
                f"token stream: {exc}",
                offset=offset,
                field=section_field,
            ) from exc
    if offset != len(payload):
        raise CorruptIndexError(
            f"{len(payload) - offset} trailing bytes after the last "
            "token section",
            offset=offset,
            field="trailer",
        )
    return ParsedIndex(
        version=VERSION,
        header=header,
        kind="compressed",
        values=values,
        compressed=planes,
    )


def _parse_v1(payload: bytes) -> ParsedIndex:
    """Parse the legacy (un-checksummed) version-1 layout."""
    offset = 4
    frame = _slice(payload, offset, 4, "header-length")
    (header_len,) = struct.unpack("<I", frame)
    offset += 4
    header_bytes = _slice(payload, offset, header_len, "header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptIndexError(
            f"header does not decode as JSON: {exc}",
            offset=offset,
            field="header",
        ) from exc
    offset += header_len
    if not isinstance(header, dict):
        raise CorruptIndexError(
            "header is not a JSON object", offset=4, field="header"
        )
    if _header_field(header, "version", int) != 1:
        raise CorruptIndexError(
            f"unsupported EBI index version {header.get('version')!r}",
            field="version",
        )
    rows = _header_field(header, "rows", int)
    if rows < 0:
        raise CorruptIndexError(
            f"negative row count {rows}", field="rows"
        )
    _header_field(header, "column", str)
    for mode_field in ("void_mode", "null_mode"):
        if _header_field(header, mode_field, str) not in _MODES:
            raise CorruptIndexError(
                f"{mode_field} must be one of {_MODES}",
                field=mode_field,
            )
    mapping = _build_mapping(header)
    vectors: List[np.ndarray] = []
    expected_len = ((rows + 63) // 64) * 8
    for i in range(mapping.width):
        section_field = f"vector[{i}]"
        frame = _slice(payload, offset, 4, section_field)
        (raw_len,) = struct.unpack("<I", frame)
        offset += 4
        if raw_len != expected_len:
            raise CorruptIndexError(
                f"vector {i} holds {raw_len} bytes, expected "
                f"{expected_len} for {rows} rows",
                offset=offset,
                field=f"{section_field}.length",
            )
        raw = _slice(payload, offset, raw_len, section_field)
        offset += raw_len
        vectors.append(np.frombuffer(raw, dtype="<u8").astype(np.uint64))
    return ParsedIndex(
        version=1, header=header, mapping=mapping, vectors=vectors
    )


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def loads(payload: bytes, table: Table) -> SerializableIndex:
    """Reconstruct an index from bytes, bound to ``table``.

    The payload's ``kind`` tag picks the index class.  Raises
    :class:`~repro.errors.CorruptIndexError` when the payload itself
    is damaged, and :class:`~repro.errors.IndexBuildError` when the
    (intact) payload does not match the supplied table.
    """
    parsed = parse(payload)
    header = parsed.header
    if header["rows"] != len(table):
        raise IndexBuildError(
            f"index was saved for {header['rows']} rows, table has "
            f"{len(table)}"
        )
    if header["column"] not in table:
        raise IndexBuildError(
            f"table has no column {header['column']!r}"
        )
    if parsed.kind == "compressed":
        return _loads_compressed(parsed, table)

    index = EncodedBitmapIndex.__new__(EncodedBitmapIndex)
    # Initialise without a rebuild scan: restore state directly.
    from repro.index.base import Index

    Index.__init__(index, table, header["column"])
    index.void_mode = header["void_mode"]
    index.null_mode = header["null_mode"]
    index._mapping = parsed.mapping
    index._init_caches()
    index._exists_vector = None
    index._null_vector = None
    if index.void_mode == "vector":
        index._exists_vector = table.existence_vector()
    if index.null_mode == "vector":
        null_vector = BitVector(len(table))
        column = table.column(header["column"])
        for row_id in range(len(table)):
            if not table.is_void(row_id) and column[row_id] is None:
                null_vector[row_id] = True
        index._null_vector = null_vector

    index._publish(np.vstack(parsed.vectors), header["rows"])
    return index


def _loads_compressed(
    parsed: ParsedIndex, table: Table
) -> CompressedBitmapIndex:
    """Restore a compressed index without the O(n * m) rebuild scan."""
    from repro.index.base import Index

    index = CompressedBitmapIndex.__new__(CompressedBitmapIndex)
    Index.__init__(index, table, parsed.header["column"])
    index._vectors = {
        value: RunLengthBitmap.from_word_aligned(plane)
        for value, plane in zip(parsed.values, parsed.compressed)
    }
    index._null_vector = RunLengthBitmap.from_word_aligned(
        parsed.compressed[-1]
    )
    return index


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------
def save(index: SerializableIndex, path: str) -> None:
    """Atomically write the serialised index to ``path``.

    Write-temp + verify + rename: the payload goes to ``path + ".tmp"``
    first, is re-read and checksum-verified, and only then renamed over
    ``path`` — a crash mid-save leaves any previous index intact, and
    a corrupted temp file is never published.
    """
    payload = dumps(index)
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        with open(tmp_path, "rb") as handle:
            parse(handle.read())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load(path: str, table: Table) -> SerializableIndex:
    """Read an index from ``path`` and bind it to ``table``."""
    with open(path, "rb") as handle:
        return loads(handle.read(), table)
