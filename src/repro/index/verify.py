"""``ebi fsck`` — integrity verification and repair for encoded bitmap
indexes.

The paper's cost model (Section 3) and retrieval correctness both rest
on structural invariants that nothing previously re-checked once an
index was built or loaded.  :func:`verify_index` audits a live
:class:`~repro.index.encoded_bitmap.EncodedBitmapIndex` against them:

``mapping-consistency``
    The mapping is a one-to-one map whose codes fit the declared width
    ``k`` (Definition 2.1), there are exactly ``k`` bitmap vectors,
    and every vector spans exactly the table's rows.

``void-code-zero``
    Theorem 2.1: with ``void_mode="encode"`` code 0 belongs to the
    VOID sentinel, every void row stores code 0, and no live row does.
    With ``void_mode="vector"`` the existence vector must be the exact
    complement of the void-row set.

``row-partition``
    The k vectors partition the rows: every row's stored code decodes
    to exactly one mapped value, and that value is the row's actual
    column value — i.e. each row is covered by exactly one minterm,
    the right one.

``reduction-cache``
    Definition 2.5 ties cost guarantees to reductions over the
    *current* mapping: every cached reduced function must still have
    the current width and cover exactly its selected codes over the
    assigned code set (unused codes are don't-cares).

:func:`repair` is the recovery path: it rebuilds only the damaged
bitmap vectors from the base column (the mapping itself cannot be
reconstructed from data, so mapping corruption is reported as
unrepairable), drops the plane snapshot, the delta tier and the
reduction and kernel caches derived from the damaged vectors, and
clears the index's degraded flag once a re-audit passes.

:func:`verify_payload` is the file-level half used by ``repro fsck``:
it checks a serialised payload's checksums and structure without
needing the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bitmap.bitvector import BitVector
from repro.boolean.reduction import ReducedFunction
from repro.encoding.mapping import NULL, VOID, MappingTable
from repro.errors import CorruptIndexError, EncodingError
from repro.index import serialization
from repro.index.encoded_bitmap import EncodedBitmapIndex

#: Invariant identifiers, in audit order.
INVARIANT_MAPPING = "mapping-consistency"
INVARIANT_VOID = "void-code-zero"
INVARIANT_PARTITION = "row-partition"
INVARIANT_CACHE = "reduction-cache"

ALL_INVARIANTS = (
    INVARIANT_MAPPING,
    INVARIANT_VOID,
    INVARIANT_PARTITION,
    INVARIANT_CACHE,
)

#: Cap on per-row violation detail kept in a report.
_MAX_DETAILS = 8


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant breach found by the auditor."""

    invariant: str
    message: str

    def render(self) -> str:
        return f"{self.invariant}: {self.message}"


@dataclass
class FsckReport:
    """Outcome of one :func:`verify_index` run."""

    violations: List[Violation] = field(default_factory=list)
    checked_rows: int = 0
    checked_vectors: int = 0
    checked_cache_entries: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def invariants_violated(self) -> List[str]:
        """Distinct violated invariant ids, in audit order."""
        seen: List[str] = []
        for violation in self.violations:
            if violation.invariant not in seen:
                seen.append(violation.invariant)
        return seen

    def render(self) -> str:
        if self.ok:
            return (
                f"fsck clean: {self.checked_rows} rows, "
                f"{self.checked_vectors} vectors, "
                f"{self.checked_cache_entries} cached reductions"
            )
        lines = [f"fsck found {len(self.violations)} violation(s):"]
        lines.extend("  " + v.render() for v in self.violations)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# expected state derived from the base column
# ----------------------------------------------------------------------
def _expected_code(
    index: EncodedBitmapIndex, row_id: int, value: Any
) -> Optional[int]:
    """The code this row *should* store, or None if not derivable."""
    mapping = index.mapping
    if index.table.is_void(row_id) or (
        value is None and not index._encodes_null()
    ):
        # Void rows, and NULL rows that share void's code.
        if index.void_mode == "encode":
            return mapping.encode(VOID) if VOID in mapping else None
        return 0
    if value is None:
        return mapping.encode(NULL) if NULL in mapping else None
    if value in mapping:
        return mapping.encode(value)
    return None


def _stored_code(index: EncodedBitmapIndex, row_id: int) -> int:
    code = 0
    for i in range(len(index._vectors)):
        if index._vectors[i][row_id]:
            code |= 1 << i
    return code


# ----------------------------------------------------------------------
# the four audits
# ----------------------------------------------------------------------
def _check_mapping_consistency(
    index: EncodedBitmapIndex, report: FsckReport
) -> bool:
    """Definition 2.1 structure; returns False when the rest of the
    audit cannot proceed meaningfully."""
    mapping = index.mapping
    ok = True
    codes = mapping.codes()
    if len(set(codes)) != len(codes):
        report.violations.append(
            Violation(
                INVARIANT_MAPPING,
                "mapping is not one-to-one: a code carries two values",
            )
        )
        ok = False
    top = 1 << mapping.width
    for value, code in mapping.items():
        if not 0 <= code < top:
            report.violations.append(
                Violation(
                    INVARIANT_MAPPING,
                    f"code {code} of value {value!r} does not fit "
                    f"width {mapping.width}",
                )
            )
            ok = False
    if len(index._vectors) != mapping.width:
        report.violations.append(
            Violation(
                INVARIANT_MAPPING,
                f"mapping width {mapping.width} != "
                f"{len(index._vectors)} bitmap vectors",
            )
        )
        ok = False
    rows = len(index.table)
    for i, vector in enumerate(index._vectors):
        report.checked_vectors += 1
        if len(vector) != rows:
            report.violations.append(
                Violation(
                    INVARIANT_MAPPING,
                    f"vector {i} spans {len(vector)} rows, table has "
                    f"{rows}",
                )
            )
            ok = False
    for name, extra in (
        ("existence", index._exists_vector),
        ("null", index._null_vector),
    ):
        if extra is not None and len(extra) != rows:
            report.violations.append(
                Violation(
                    INVARIANT_MAPPING,
                    f"{name} vector spans {len(extra)} rows, table "
                    f"has {rows}",
                )
            )
            ok = False
    return ok


def _check_void_code_zero(
    index: EncodedBitmapIndex, report: FsckReport
) -> None:
    """Theorem 2.1 (or the explicit existence vector's contract)."""
    mapping = index.mapping
    void_rows = index.table.void_rows()
    if index.void_mode == "encode":
        if VOID not in mapping:
            report.violations.append(
                Violation(
                    INVARIANT_VOID,
                    "void_mode='encode' but VOID is not in the mapping",
                )
            )
            return
        if mapping.encode(VOID) != 0:
            report.violations.append(
                Violation(
                    INVARIANT_VOID,
                    f"VOID carries code {mapping.encode(VOID)}, "
                    "Theorem 2.1 reserves code 0",
                )
            )
        bad_void = [
            row_id
            for row_id in sorted(void_rows)
            if _stored_code(index, row_id) != 0
        ]
        if bad_void:
            report.violations.append(
                Violation(
                    INVARIANT_VOID,
                    f"{len(bad_void)} void row(s) store a non-zero "
                    f"code (e.g. rows {bad_void[:_MAX_DETAILS]})",
                )
            )
        column = index.table.column(index.column_name)
        bad_live = [
            row_id
            for row_id in range(len(index.table))
            if row_id not in void_rows
            and _stored_code(index, row_id) == 0
            # NULL rows legitimately store 0 when nulls live in a
            # separate vector rather than an encoded code.
            and not (
                index.null_mode == "vector"
                and column[row_id] is None
            )
        ]
        if bad_live:
            report.violations.append(
                Violation(
                    INVARIANT_VOID,
                    f"{len(bad_live)} live row(s) store the VOID "
                    f"code 0 (e.g. rows {bad_live[:_MAX_DETAILS]})",
                )
            )
    else:
        exists = index._exists_vector
        if exists is None:
            report.violations.append(
                Violation(
                    INVARIANT_VOID,
                    "void_mode='vector' but no existence vector",
                )
            )
            return
        wrong = [
            row_id
            for row_id in range(len(index.table))
            if bool(exists[row_id]) == (row_id in void_rows)
        ]
        if wrong:
            report.violations.append(
                Violation(
                    INVARIANT_VOID,
                    f"existence vector disagrees with void rows on "
                    f"{len(wrong)} row(s) "
                    f"(e.g. rows {wrong[:_MAX_DETAILS]})",
                )
            )


def _check_row_partition(
    index: EncodedBitmapIndex, report: FsckReport
) -> None:
    """Every row covered by exactly one minterm — the right one."""
    mapping = index.mapping
    column = index.table.column(index.column_name)
    uncovered: List[int] = []
    mismatched: List[Tuple[int, int]] = []
    for row_id in range(len(index.table)):
        report.checked_rows += 1
        if index.table.is_void(row_id):
            continue  # audited by void-code-zero
        stored = _stored_code(index, row_id)
        if not mapping.has_code(stored):
            uncovered.append(row_id)
            continue
        expected = _expected_code(index, row_id, column[row_id])
        if expected is not None and stored != expected:
            mismatched.append((row_id, stored))
    if uncovered:
        report.violations.append(
            Violation(
                INVARIANT_PARTITION,
                f"{len(uncovered)} row(s) store a code outside the "
                f"mapping — covered by no minterm "
                f"(e.g. rows {uncovered[:_MAX_DETAILS]})",
            )
        )
    if mismatched:
        report.violations.append(
            Violation(
                INVARIANT_PARTITION,
                f"{len(mismatched)} row(s) store a code that decodes "
                f"to the wrong value "
                f"(e.g. {mismatched[:_MAX_DETAILS]})",
            )
        )


def _cache_entry_valid(
    mapping: MappingTable,
    codes: Tuple[int, ...],
    width: int,
    function: ReducedFunction,
) -> bool:
    if width != mapping.width or function.width != mapping.width:
        return False
    selected = set(codes)
    for code in mapping.codes():
        if function.evaluate_value(code) != (code in selected):
            return False
    return True


def _check_reduction_cache(
    index: EncodedBitmapIndex, report: FsckReport
) -> None:
    """Definition 2.5: cached reductions must match the live mapping."""
    mapping = index.mapping
    stale: List[Tuple[int, ...]] = []
    for (codes, width), function in index._reduction_cache.items():
        report.checked_cache_entries += 1
        if not _cache_entry_valid(mapping, codes, width, function):
            stale.append(codes)
    if stale:
        report.violations.append(
            Violation(
                INVARIANT_CACHE,
                f"{len(stale)} cached reduction(s) are stale for the "
                f"current mapping (e.g. code sets "
                f"{stale[:_MAX_DETAILS]})",
            )
        )


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def verify_index(
    index: EncodedBitmapIndex, mark: bool = True
) -> FsckReport:
    """Audit a live index against the paper's invariants.

    With ``mark=True`` (default) the index's ``degraded`` flag is set
    to the outcome, which the query planner consults to fall back to
    table scans instead of trusting a broken index.
    """
    report = FsckReport()
    structure_ok = _check_mapping_consistency(index, report)
    if structure_ok:
        _check_void_code_zero(index, report)
        _check_row_partition(index, report)
        _check_reduction_cache(index, report)
    if mark:
        index.degraded = not report.ok
    return report


def repair(index: EncodedBitmapIndex) -> List[int]:
    """Rebuild only the damaged bitmap vectors from the base column.

    Returns the indexes of the vectors that were rewritten.  The
    mapping table is the one artefact that cannot be reconstructed
    from data (the value->code assignment is arbitrary), so mapping
    corruption raises :class:`~repro.errors.CorruptIndexError`.
    The vectors are swapped in through
    :meth:`EncodedBitmapIndex.replace_vectors`, so no lookup serves
    planes, reductions or kernels from before the repair.  The index
    is then re-audited: a clean re-audit clears the degraded flag.
    """
    mapping = index.mapping
    try:
        from repro.encoding.well_defined import check_mapping

        check_mapping(mapping)
    except EncodingError as exc:
        raise CorruptIndexError(
            f"mapping table is corrupt and cannot be rebuilt from the "
            f"base column: {exc}",
            field="mapping",
        ) from exc
    rows = len(index.table)
    column = index.table.column(index.column_name)

    # Expected per-row codes, straight from the base column.
    expected_codes: List[int] = []
    for row_id in range(rows):
        expected = _expected_code(index, row_id, column[row_id])
        if expected is None:
            raise CorruptIndexError(
                f"row {row_id} holds a value absent from the mapping; "
                "rebuild the index from scratch",
                field="mapping",
            )
        expected_codes.append(expected)

    codes = np.array(expected_codes, dtype=np.int64)
    expected_vectors = [
        BitVector.from_mask((codes >> i) & 1) for i in range(mapping.width)
    ]
    repaired = [
        i
        for i, expected_vector in enumerate(expected_vectors)
        if i >= len(index._vectors)
        or len(index._vectors[i]) != rows
        or index._vectors[i] != expected_vector
    ]
    index.replace_vectors({i: expected_vectors[i] for i in repaired})
    verify_index(index, mark=True)
    return repaired


@dataclass
class PayloadReport:
    """File-level fsck outcome for one serialised payload."""

    path: str
    version: int = 0
    vectors: int = 0
    rows: int = 0
    error: Optional[CorruptIndexError] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def render(self) -> str:
        if self.ok:
            return (
                f"PASS  {self.path}  (v{self.version}, {self.rows} "
                f"rows, {self.vectors} vectors)"
            )
        return f"FAIL  {self.path}  {self.error}"


def verify_payload(payload: bytes, path: str = "<bytes>") -> PayloadReport:
    """File-level fsck: checksums + structure, no table required."""
    report = PayloadReport(path=path)
    try:
        parsed = serialization.parse(payload)
    except CorruptIndexError as exc:
        report.error = exc
        return report
    report.version = parsed.version
    report.vectors = len(parsed.vectors) + len(parsed.compressed)
    rows = parsed.header.get("rows")
    report.rows = rows if isinstance(rows, int) else 0
    return report


def fsck_header(header: Dict[str, Any]) -> List[str]:
    """Human-readable summary lines for a parsed header (CLI aid)."""
    return [
        f"column: {header.get('column')!r}",
        f"width (k): {header.get('width')}",
        f"rows: {header.get('rows')}",
        f"void_mode: {header.get('void_mode')}, "
        f"null_mode: {header.get('null_mode')}",
        f"mapping entries: {len(header.get('mapping', []))}",
    ]
