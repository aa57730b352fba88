"""The three workloads: seeded inputs, set-up, operations and oracle.

Each workload is a closed loop driven by one client thread.  Its
operations come in stratified *blocks*: every block holds a fixed
count of each operation class, shuffled, so a new seed changes the
values but never the mix.  Three classes exist in every workload, so
every end-to-end metric is defined everywhere:

* ``count`` — a read whose answer is consumed with ``count()``;
* ``rows``  — a read whose answer is consumed with ``row_ids()``;
* ``write`` — an acknowledged ``Database.append_rows`` of a few rows.

The :class:`Oracle` is the benchmark's own numpy reference.  It keeps
per-value and joint histograms (for counts) and the column arrays
(for exact row ids), and follows every acknowledged append.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.database import Database
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.options import QueryOptions
from repro.query.predicates import (
    AndPredicate,
    Equals,
    InList,
    OrPredicate,
    Predicate,
    Range,
)
from repro.serving.server import Server

from perfbench import measure

CLASSES = ("count", "rows", "write")

#: Oracle specs: ("in", column, values) or ("and", spec, spec).
Spec = Tuple[Any, ...]


@dataclass
class Op:
    """One client operation."""

    cls: str
    predicate: Optional[Predicate] = None
    spec: Optional[Spec] = None
    #: Appended rows as the program receives them, and as oracle codes.
    rows: Optional[List[Dict[str, Any]]] = None
    codes: Optional[List[Dict[str, int]]] = None
    tenant: Optional[str] = None

    def describe(self) -> str:
        """Stable text used to compare operation sequences."""
        if self.cls == "write":
            return f"write {self.rows}"
        return f"{self.cls} {self.tenant} {self.predicate!r}"


# ----------------------------------------------------------------------
# the numpy reference
# ----------------------------------------------------------------------
class Oracle:
    """Reference answers from numpy arrays and histograms.

    Counts come from per-value and joint histograms.  Row ids come from
    a per-value index over the initial rows (stable argsort, so each
    value's rows are ascending) plus a scan of the appended tail.
    """

    def __init__(
        self,
        columns: Dict[str, np.ndarray],
        domains: Dict[str, int],
        pair: Optional[Tuple[str, str]],
    ) -> None:
        self.base = self.n = len(next(iter(columns.values())))
        # The workload's own int16 columns, not copies.
        self.arrays = columns
        self.hist = {
            name: np.bincount(values, minlength=domains[name]).astype(np.int64)
            for name, values in self.arrays.items()
        }
        self.order = {
            name: np.argsort(values, kind="stable").astype(np.int32)
            for name, values in self.arrays.items()
        }
        self.starts = {
            name: np.concatenate([[0], np.cumsum(hist)]) for name, hist in self.hist.items()
        }
        self.tail: Dict[str, List[int]] = {name: [] for name in columns}
        self.pair = pair
        self.joint: Optional[np.ndarray] = None
        if pair is not None:
            a, b = pair
            flat = self.arrays[a].astype(np.int64) * domains[b] + self.arrays[b]
            self.joint = (
                np.bincount(flat, minlength=domains[a] * domains[b])
                .reshape(domains[a], domains[b])
                .astype(np.int64)
            )

    def append(self, rows: Sequence[Dict[str, int]]) -> None:
        for row in rows:
            for name, value in row.items():
                self.tail[name].append(value)
                self.hist[name][value] += 1
            if self.joint is not None and self.pair is not None:
                a, b = self.pair
                self.joint[row[a], row[b]] += 1
            self.n += 1

    def count(self, spec: Spec) -> int:
        if spec[0] == "in":
            return int(self.hist[spec[1]][list(spec[2])].sum())
        _, left, right = spec
        assert self.pair == (left[1], right[1])
        block = self.joint[np.ix_(list(left[2]), list(right[2]))]
        return int(block.sum())

    def value_at(self, column: str, rows: np.ndarray) -> np.ndarray:
        """Column values at ascending row ids (initial rows or tail)."""
        out = np.empty(len(rows), dtype=np.int64)
        rows = rows.astype(np.int64)
        inside = rows < self.base
        out[inside] = self.arrays[column][rows[inside]]
        tail = np.asarray(self.tail[column], dtype=np.int64)
        out[~inside] = tail[rows[~inside] - self.base]
        return out

    def rows(self, spec: Spec) -> np.ndarray:
        """Ascending row ids matching ``spec``."""
        if spec[0] == "and":
            rows = self.rows(spec[1])
            _, column, values = spec[2]
            return rows[np.isin(self.value_at(column, rows), values)]
        _, column, values = spec
        order, starts = self.order[column], self.starts[column]
        base = np.sort(
            np.concatenate([order[starts[v]:starts[v + 1]] for v in values])
        ).astype(np.int64)
        tail = np.asarray(self.tail[column], dtype=np.int64)
        appended = np.flatnonzero(np.isin(tail, values)) + self.base
        return np.concatenate([base, appended])

    def check(self, op: Op, answer: Any) -> bool:
        """True when ``answer`` is exactly the reference answer."""
        if op.cls == "count":
            return answer == self.count(op.spec)
        if op.cls == "rows":
            got = np.fromiter(answer, dtype=np.int64, count=len(answer))
            return bool(np.array_equal(got, self.rows(op.spec)))
        expected = list(range(self.n, self.n + len(op.codes)))
        if list(answer) != expected:
            return False
        self.append(op.codes)
        return True


def _in(column: str, values: Sequence[int]) -> Spec:
    return ("in", column, tuple(int(v) for v in values))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Shared set-up and driving logic; subclasses fill in the data,
    the indexes and the block generator."""

    name = ""
    table = ""
    #: Identical builds per run; ``setup_s`` is their median.  The
    #: larger half runs before the timed phase, the rest after it.
    builds = 4
    #: Rows per acknowledged append.
    append_rows = 8
    #: Untimed blocks run after the CPU spin and before timing.
    warmup_blocks = 1
    partitions: Optional[int] = None
    memory_budget_bytes: Optional[int] = None
    indexed: Tuple[str, ...] = ()
    domains: Dict[str, int] = {}
    pair: Optional[Tuple[str, str]] = None
    block_mix: Dict[str, int] = {}
    served = False
    #: When above 1, a timed phase is a fixed number of whole cycles
    #: of this many blocks, one statistics segment each.
    cycle_blocks = 1
    #: Nominal seconds per cycle: ``--seconds`` buys this many cycles.
    cycle_seconds = 1.0
    #: Columns the program sees as formatted strings rather than ints.
    labels: Dict[str, str] = {}

    def __init__(self, seed: int) -> None:
        self.data_rng = np.random.default_rng([seed, 0])
        self.op_rng = np.random.default_rng([seed, 1])
        self.columns = self.make_columns()
        self._labels = {
            name: [fmt.format(i) for i in range(self.domains[name])]
            for name, fmt in self.labels.items()
        }
        self.db: Optional[Database] = None
        self.server: Optional[Server] = None
        self.directory = ""
        self._options: Dict[Optional[str], QueryOptions] = {}

    # -- data ------------------------------------------------------------
    def make_columns(self) -> Dict[str, np.ndarray]:
        """Seeded columns of oracle codes, as int16 arrays."""
        raise NotImplementedError

    def oracle(self) -> Oracle:
        return Oracle(self.columns, self.domains, self.pair)

    def value(self, column: str, code: int) -> Any:
        """The program-side value of the oracle's integer ``code``."""
        table = self._labels.get(column)
        return code if table is None else table[code]

    def values(self, column: str, codes: Sequence[int]) -> List[Any]:
        table = self._labels.get(column)
        return list(codes) if table is None else [table[code] for code in codes]

    # -- set-up ----------------------------------------------------------
    def build(self, directory: str) -> Tuple[Database, float]:
        """Table + indexes: the timed set-up step.

        Returns the database and the build's wall seconds; converting
        the seeded arrays to the row lists the facade takes is not
        timed.
        """
        data = {
            name: self.values(name, values.tolist())
            for name, values in self.columns.items()
        }
        start = time.perf_counter()
        db = Database(memory_budget_bytes=self.memory_budget_bytes)
        db.create_table(self.table, data, partitions=self.partitions)
        for column in self.indexed:
            db.create_index(self.table, column)
        return db, time.perf_counter() - start

    def attach(self, db: Database, directory: str) -> None:
        """Adopt the final build; start the server if the workload serves."""
        self.db = db
        self.directory = directory
        if self.served:
            self.server = Server(database=db, workers=1, use_cache=True)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.db is not None:
            self.db.close()
            self.db = None

    # -- driving ---------------------------------------------------------
    def blocks(self) -> Iterator[List[Op]]:
        while True:
            ops = self.make_block()
            order = self.op_rng.permutation(len(ops))
            yield [ops[i] for i in order]

    def make_block(self) -> List[Op]:
        raise NotImplementedError

    def append_op(self) -> Op:
        values = {
            name: self.op_rng.integers(0, self.domains[name], self.append_rows)
            for name in self.columns
        }
        codes = [
            {name: int(values[name][i]) for name in self.columns}
            for i in range(self.append_rows)
        ]
        rows = [
            {name: self.value(name, code) for name, code in row.items()}
            for row in codes
        ]
        return Op("write", rows=rows, codes=codes)

    def execute(self, op: Op) -> Tuple[Any, Any]:
        """Run one operation and consume its answer.

        Returns ``(answer, result)``; ``result`` is the
        :class:`~repro.query.executor.QueryResult` for reads.
        """
        assert self.db is not None
        if op.cls == "write":
            return self.db.append_rows(self.table, op.rows), None
        options = self._options.get(op.tenant)
        if options is None:
            options = self._options[op.tenant] = QueryOptions(
                workers=1, tenant=op.tenant
            )
        if self.server is not None:
            result = self.server.query(self.table, op.predicate, options=options)
        else:
            result = self.db.query(self.table, op.predicate, options)
        if op.cls == "count":
            return result.count(), result
        return result.row_ids(), result

    # -- public state the traced run samples --------------------------
    def encoded_indexes(self) -> List[Any]:
        assert self.db is not None
        out: List[Any] = []
        for index in self.db.catalog.all_indexes():
            out.extend(getattr(index, "children", [index]))
        return [index for index in out if hasattr(index, "delta_rows")]

    def residency(self) -> Dict[str, int]:
        assert self.db is not None
        return self.db.residency_report(self.table) or {}

    def disk_bytes_per_row(self) -> float:
        """Bytes the database keeps on disk per table row.  The
        database runs unsaved (its appends are not WAL-logged) and is
        saved here, once, after the timed phase."""
        assert self.db is not None
        self.db.save(self.directory)
        return measure.disk_bytes(self.directory) / self.table_rows()

    def table_rows(self) -> int:
        assert self.db is not None
        return len(self.db.table(self.table))


class AdhocWorkload(Workload):
    """Ad-hoc analyst queries over a fully resident 2M-row table.

    Every read predicate is new to the process, so reduction and
    kernel compile run cold; wide extracts make row materialisation
    the dominant cost of the ``rows`` class.
    """

    name = "adhoc_2m"
    table = "facts"
    partitions = 8
    indexed = ("v", "g")
    domains = {"v": 1000, "g": 16}
    pair = ("v", "g")
    block_mix = {"count": 21, "rows": 7, "write": 4}
    #: Zero-padded keys sort by string exactly as by number, so the
    #: default mapping gives a ``v`` range contiguous codes.  (Plain
    #: ints sort as "0", "1", "10", ...: a range then scatters over
    #: the codes, and exact reduction of some 50-value scatters takes
    #: over a second -- rare events that swamp every timing.)
    labels = {"v": "v{:03d}"}

    #: IN-lists stay at 64 values or fewer: exact reduction of random
    #: sets past ~100 codes has a heavy tail (250 ms at 128 values).
    IN_SIZES = (4, 8, 16, 24, 32, 48, 64)
    RANGE_WIDTHS = (2, 5, 10, 20, 30, 40, 50)
    CONJ_SIZES = (8, 16, 24, 32, 40, 48, 64)
    EXTRACT_WIDTHS = (50, 75, 100, 125, 150, 175, 200)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._seen: set = set()

    def make_columns(self) -> Dict[str, np.ndarray]:
        n = 2_097_152
        return {
            "v": self.data_rng.integers(0, 1000, n, dtype=np.int16),
            "g": self.data_rng.integers(0, 16, n, dtype=np.int16),
        }

    def _fresh(self, draw) -> Tuple[int, ...]:
        """Draw value sets until one is new to the process."""
        while True:
            values = tuple(sorted(int(v) for v in draw()))
            if values not in self._seen:
                self._seen.add(values)
                return values

    def _in_list(self, size: int) -> Tuple[int, ...]:
        return self._fresh(
            lambda: self.op_rng.choice(1000, size, replace=False)
        )

    def _range(self, width: int) -> Tuple[int, ...]:
        def draw() -> range:
            low = int(self.op_rng.integers(0, 1000 - width + 1))
            return range(low, low + width)

        return self._fresh(draw)

    def _range_predicate(self, values: Tuple[int, ...]) -> Range:
        return Range("v", self.value("v", values[0]), self.value("v", values[-1]))

    def make_block(self) -> List[Op]:
        ops: List[Op] = []
        for size in self.IN_SIZES:
            values = self._in_list(size)
            ops.append(
                Op("count", InList("v", self.values("v", values)), _in("v", values))
            )
        for width in self.RANGE_WIDTHS:
            values = self._range(width)
            ops.append(Op("count", self._range_predicate(values), _in("v", values)))
        for size in self.CONJ_SIZES:
            values = self._in_list(size)
            group = int(self.op_rng.integers(0, 16))
            ops.append(
                Op(
                    "count",
                    AndPredicate(
                        (InList("v", self.values("v", values)), Equals("g", group))
                    ),
                    ("and", _in("v", values), _in("g", [group])),
                )
            )
        for width in self.EXTRACT_WIDTHS:
            values = self._range(width)
            ops.append(Op("rows", self._range_predicate(values), _in("v", values)))
        ops.extend(self.append_op() for _ in range(self.block_mix["write"]))
        return ops


class ServeWorkload(Workload):
    """A multi-tenant dashboard served through the admission queue and
    the result cache, with appends beside the reads."""

    name = "serve_zipf"
    table = "tiles"
    #: Builds here take ~0.25 s, so more of them go into the median.
    builds = 15
    #: 2 appends of 32 rows a block fill the delta tier of both
    #: indexes to its compaction threshold in 64 blocks (~3 s), so a
    #: timed phase holds at least five whole compaction cycles.
    append_rows = 32
    warmup_blocks = 2
    indexed = ("region", "kind")
    domains = {"region": 64, "kind": 8}
    pair = ("region", "kind")
    block_mix = {"count": 14, "rows": 4, "write": 2}
    served = True

    #: Timing whole compaction cycles, one per segment, gives every
    #: segment the same delta sizes.  A fixed number of them (not a
    #: fixed time) gives every run the same appended rows, so memory
    #: that grows with the table does not follow host speed.
    cycle_blocks = EncodedBitmapIndex.DELTA_COMPACT_THRESHOLD // (
        block_mix["write"] * append_rows
    )
    #: A cycle took about 3 s on a 2-vCPU Xeon.
    cycle_seconds = 3.0

    REGION_SKEW = 1.1
    #: Reads per tenant per block (zipf weights 1, 1/2, 1/3, 1/4).
    TENANT_READS = (9, 4, 3, 2)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        ranks = np.arange(64, dtype=float)
        weights = 1.0 / (ranks + 1.0) ** self.REGION_SKEW
        self._weights = weights / weights.sum()
        self._hot = self.op_rng.permutation(64)

    def make_columns(self) -> Dict[str, np.ndarray]:
        n = 262_144
        return {
            "region": self.data_rng.integers(0, 64, n, dtype=np.int16),
            "kind": self.data_rng.integers(0, 8, n, dtype=np.int16),
        }

    def _regions(self, count: int) -> List[int]:
        ranks = self.op_rng.choice(64, count, replace=False, p=self._weights)
        return [int(self._hot[r]) for r in ranks]

    def make_block(self) -> List[Op]:
        ops: List[Op] = []
        for _ in range(6):
            (region,) = self._regions(1)
            ops.append(
                Op("count", Equals("region", region), _in("region", [region]))
            )
        for size in (2, 3, 3, 4):
            regions = self._regions(size)
            ops.append(
                Op("count", InList("region", regions), _in("region", regions))
            )
        for size in (2, 2, 3, 3):
            regions = self._regions(size)
            ops.append(
                Op(
                    "count",
                    OrPredicate(tuple(Equals("region", r) for r in regions)),
                    _in("region", regions),
                )
            )
        for _ in range(4):
            (region,) = self._regions(1)
            kind = int(self.op_rng.integers(0, 8))
            ops.append(
                Op(
                    "rows",
                    AndPredicate(
                        (Equals("region", region), Equals("kind", kind))
                    ),
                    ("and", _in("region", [region]), _in("kind", [kind])),
                )
            )
        tenants = [
            f"tenant{t}"
            for t, reads in enumerate(self.TENANT_READS)
            for _ in range(reads)
        ]
        for op, position in zip(ops, self.op_rng.permutation(len(tenants))):
            op.tenant = tenants[position]
        ops.extend(self.append_op() for _ in range(self.block_mix["write"]))
        return ops


class ScanWorkload(Workload):
    """Recurring reports over a table four times its plane budget.

    A fixed pool of IN-lists is cycled, so reductions and kernels are
    cached and every read pays plane fault-in and prefetch.
    """

    name = "scan_ooc_4m"
    table = "facts"
    partitions = 16
    indexed = ("v",)
    domains = {"v": 255}
    block_mix = {"count": 24, "rows": 4, "write": 4}
    warmup_blocks = 3

    ROWS = 4_194_304
    WIDTH = 8  # k = ceil(log2(255 values + NULL/void codes)) = 8
    POOL = 64
    EXTRACT_POOL = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        words = -(-self.ROWS // 64)
        dense_plane_bytes = 2 * self.WIDTH * words * 8
        self.memory_budget_bytes = dense_plane_bytes // 4
        sizes = [1 + (i % 32) for i in range(self.POOL)]
        self._pool = [
            tuple(sorted(int(v) for v in self.op_rng.choice(255, s, replace=False)))
            for s in sizes
        ]
        self._order = self.op_rng.permutation(self.POOL)
        self._extracts = [
            tuple(
                sorted(
                    int(v)
                    for v in self.op_rng.choice(255, 1 + i % 3, replace=False)
                )
            )
            for i in range(self.EXTRACT_POOL)
        ]
        self._cursor = 0
        self._extract_cursor = 0

    def make_columns(self) -> Dict[str, np.ndarray]:
        return {"v": self.data_rng.integers(0, 255, self.ROWS, dtype=np.int16)}

    def make_block(self) -> List[Op]:
        ops: List[Op] = []
        for _ in range(self.block_mix["count"]):
            values = self._pool[self._order[self._cursor % self.POOL]]
            self._cursor += 1
            ops.append(Op("count", InList("v", values), _in("v", values)))
        for _ in range(self.block_mix["rows"]):
            values = self._extracts[self._extract_cursor % self.EXTRACT_POOL]
            self._extract_cursor += 1
            ops.append(Op("rows", InList("v", values), _in("v", values)))
        ops.extend(self.append_op() for _ in range(self.block_mix["write"]))
        return ops


WORKLOADS = {
    cls.name: cls for cls in (AdhocWorkload, ServeWorkload, ScanWorkload)
}
