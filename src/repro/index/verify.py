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
    the right one.  The delta tier's codes (the rows appended since
    the last fold) are the stored codes' suffix, audited alike.

Stored codes are read off the plane matrix in one pass per plane
(plus the delta codes), expected codes come from one pass over the
column through a value->code table, and every audit is an array
comparison.

``reduction-cache``
    Definition 2.5 ties cost guarantees to reductions over the
    *current* mapping: every cached reduced function must still have
    the current width and cover exactly its selected codes over the
    assigned code set (unused codes are don't-cares).

``plane-file``
    A spilled index serves its planes from an ``EBIPLANE`` file
    (:mod:`repro.kernels.mapped`): the file's header and payload CRCs
    must still match what was written, and its geometry the map's.

:func:`repair` is the recovery path: it reports which bitmap vectors
were damaged and publishes a plane matrix rebuilt from the base column
(the mapping itself cannot be reconstructed from data, so mapping
corruption is reported as unrepairable), dropping the delta tier and
the reduction and kernel caches, and clears the index's degraded flag
once a re-audit passes.

:func:`verify_payload` is the file-level half used by ``repro fsck``:
it checks a serialised payload's checksums and structure without
needing the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.boolean.reduction import ReducedFunction
from repro.encoding.mapping import NULL, VOID, MappingTable
from repro.errors import ChecksumError, CorruptIndexError
from repro.index import serialization
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.kernels.mapped import MappedPlaneSet

#: Invariant identifiers, in audit order.
INVARIANT_MAPPING = "mapping-consistency"
INVARIANT_VOID = "void-code-zero"
INVARIANT_PARTITION = "row-partition"
INVARIANT_CACHE = "reduction-cache"
INVARIANT_PLANE_FILE = "plane-file"

ALL_INVARIANTS = (
    INVARIANT_MAPPING,
    INVARIANT_VOID,
    INVARIANT_PARTITION,
    INVARIANT_CACHE,
    INVARIANT_PLANE_FILE,
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
def _expected_codes(index: EncodedBitmapIndex) -> np.ndarray:
    """Each row's expected code (int64), ``-1`` where not derivable.

    One pass over the column through a value->code table — the
    build's lookup table, made tolerant of values the mapping lacks.
    """
    mapping = index.mapping
    if index.void_mode == "encode":
        void_code = mapping.encode(VOID) if VOID in mapping else -1
    else:
        void_code = 0

    def code_of(value: Any) -> int:
        if value is None and not index._encodes_null():
            return void_code  # NULL shares void's code
        key = NULL if value is None else value
        return mapping.encode(key) if key in mapping else -1

    column = index.table.column(index.column_name)
    lookup = {v: code_of(v) for v in (*column.distinct_values(), None)}
    expected = np.fromiter(
        map(lookup.get, column, repeat(-1)), dtype=np.int64, count=len(column)
    )
    expected[_void_rows(index)] = void_code
    return expected


def _void_rows(index: EncodedBitmapIndex) -> np.ndarray:
    """Void row ids, ascending."""
    return np.sort(np.fromiter(index.table.void_rows(), dtype=np.int64))


def _examples(rows: np.ndarray) -> List[int]:
    return rows[:_MAX_DETAILS].tolist()


# ----------------------------------------------------------------------
# the audits
# ----------------------------------------------------------------------
def _mapping_problems(mapping: MappingTable) -> List[str]:
    """Definition 2.1: a one-to-one map whose codes fit the width."""
    problems: List[str] = []
    codes = mapping.codes()
    if len(set(codes)) != len(codes):
        problems.append(
            "mapping is not one-to-one: a code carries two values"
        )
    top = 1 << mapping.width
    for value, code in mapping.items():
        if not 0 <= code < top:
            problems.append(
                f"code {code} of value {value!r} does not fit "
                f"width {mapping.width}"
            )
    return problems


def _check_mapping_consistency(
    index: EncodedBitmapIndex, report: FsckReport
) -> bool:
    """Definition 2.1 structure; returns False when the rest of the
    audit cannot proceed meaningfully."""
    mapping = index.mapping
    problems = _mapping_problems(mapping)
    report.violations.extend(
        Violation(INVARIANT_MAPPING, problem) for problem in problems
    )
    ok = not problems
    planes = index.planes()
    if planes.width != mapping.width:
        report.violations.append(
            Violation(
                INVARIANT_MAPPING,
                f"mapping width {mapping.width} != "
                f"{planes.width} bitmap vectors",
            )
        )
        ok = False
    rows = len(index.table)
    spanned = planes.nbits + index.delta_rows()
    for i in range(planes.width):
        report.checked_vectors += 1
        if spanned != rows:
            report.violations.append(
                Violation(
                    INVARIANT_MAPPING,
                    f"vector {i} spans {spanned} rows, table has "
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
    index: EncodedBitmapIndex,
    report: FsckReport,
    stored: np.ndarray,
    expected: np.ndarray,
) -> None:
    """Theorem 2.1 (or the explicit existence vector's contract)."""
    mapping = index.mapping
    void = _void_rows(index)
    live = np.ones(len(stored), dtype=bool)
    live[void] = False
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
        bad_void = void[stored[void] != 0]
        if len(bad_void):
            report.violations.append(
                Violation(
                    INVARIANT_VOID,
                    f"{len(bad_void)} void row(s) store a non-zero "
                    f"code (e.g. rows {_examples(bad_void)})",
                )
            )
        # NULL rows legitimately store 0 when nulls live in a separate
        # vector rather than an encoded code: their expected code is 0.
        bad_live = np.flatnonzero(live & (stored == 0) & (expected != 0))
        if len(bad_live):
            report.violations.append(
                Violation(
                    INVARIANT_VOID,
                    f"{len(bad_live)} live row(s) store the VOID "
                    f"code 0 (e.g. rows {_examples(bad_live)})",
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
        wrong = np.flatnonzero(exists.to_mask() != live)
        if len(wrong):
            report.violations.append(
                Violation(
                    INVARIANT_VOID,
                    f"existence vector disagrees with void rows on "
                    f"{len(wrong)} row(s) "
                    f"(e.g. rows {_examples(wrong)})",
                )
            )


def _check_row_partition(
    index: EncodedBitmapIndex,
    report: FsckReport,
    stored: np.ndarray,
    expected: np.ndarray,
) -> None:
    """Every row covered by exactly one minterm — the right one.

    ``stored`` (:meth:`EncodedBitmapIndex.stored_codes`) ends with the
    delta tier's codes, so the delta suffix is audited with the folded
    rows."""
    mapping = index.mapping
    report.checked_rows += len(stored)
    assigned = np.zeros(1 << mapping.width, dtype=bool)
    assigned[list(mapping.codes())] = True
    live = np.ones(len(stored), dtype=bool)
    live[_void_rows(index)] = False  # void rows: audited by void-code-zero
    covered = assigned[stored]
    uncovered = np.flatnonzero(live & ~covered)
    mismatched = np.flatnonzero(
        live & covered & (expected >= 0) & (stored != expected)
    )
    if len(uncovered):
        report.violations.append(
            Violation(
                INVARIANT_PARTITION,
                f"{len(uncovered)} row(s) store a code outside the "
                f"mapping — covered by no minterm "
                f"(e.g. rows {_examples(uncovered)})",
            )
        )
    if len(mismatched):
        pairs = [
            (int(row), int(stored[row]))
            for row in mismatched[:_MAX_DETAILS]
        ]
        report.violations.append(
            Violation(
                INVARIANT_PARTITION,
                f"{len(mismatched)} row(s) store a code that decodes "
                f"to the wrong value (e.g. {pairs})",
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


def _check_plane_file(index: EncodedBitmapIndex, report: FsckReport) -> None:
    """A spilled index's plane file still holds what was written."""
    planes = index.planes()
    if not isinstance(planes, MappedPlaneSet):
        return
    try:
        planes.verify()
    except (ChecksumError, CorruptIndexError) as exc:
        report.violations.append(Violation(INVARIANT_PLANE_FILE, str(exc)))
    except OSError:
        # Unlinked by a closed residency manager: the map still serves
        # the bits, which the row-partition audit has read.
        pass


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
        stored = index.stored_codes()
        expected = _expected_codes(index)
        _check_void_code_zero(index, report, stored, expected)
        _check_row_partition(index, report, stored, expected)
        _check_reduction_cache(index, report)
    _check_plane_file(index, report)
    if mark:
        index.degraded = not report.ok
    return report


def repair(index: EncodedBitmapIndex) -> List[int]:
    """Rebuild the plane matrix from the base column.

    Returns the indexes of the vectors (plane rows) that were damaged.
    The mapping table is the one artefact that cannot be
    reconstructed from data (the value->code assignment is arbitrary),
    so mapping corruption raises
    :class:`~repro.errors.CorruptIndexError`.  The new matrix is
    published through :meth:`EncodedBitmapIndex.rebuild`, so no lookup
    serves planes, reductions or kernels from before the repair.  The
    index is then re-audited: a clean re-audit clears the degraded
    flag.
    """
    mapping = index.mapping
    problems = _mapping_problems(mapping)
    if index.void_mode == "encode" and (
        VOID not in mapping or mapping.encode(VOID) != 0
    ):
        problems.append("Theorem 2.1 reserves code 0 for VOID")
    if problems:
        raise CorruptIndexError(
            f"mapping table is corrupt and cannot be rebuilt from the "
            f"base column: {problems[0]}",
            field="mapping",
        )
    expected = _expected_codes(index)
    missing = np.flatnonzero(expected < 0)
    if len(missing):
        raise CorruptIndexError(
            f"row {int(missing[0])} holds a value absent from the "
            "mapping; rebuild the index from scratch",
            field="mapping",
        )
    stored = index.stored_codes()
    present = index.planes().width
    if len(stored) != len(expected):
        repaired = list(range(mapping.width))
    else:
        differs = stored ^ expected
        if index.void_mode == "vector":
            # The existence vector masks void rows; their codes are free.
            differs[_void_rows(index)] = 0
        diff = int(np.bitwise_or.reduce(differs, initial=0))
        repaired = [
            i
            for i in range(mapping.width)
            if (diff >> i) & 1 or i >= present
        ]
    index.rebuild()
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
