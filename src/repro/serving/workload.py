"""Seeded zipf-skewed multi-tenant synthetic workload.

Serving benchmarks live or die by their workload shape, so this one
is explicit about its three axes:

* **Value skew** — read predicates target domain values with
  zipf-ranked popularity (rank ``r`` drawn with probability
  proportional to ``1 / r^skew``).  Skew is what makes a result
  cache interesting: a handful of hot expressions dominate.
* **Tenant skew** — tenants draw from the same zipf law, so one hot
  tenant saturates its quota while the tail trickles.
* **Read/write mix** — writes (appends) invalidate the result cache
  epoch, bounding how long any cached entry can live.

Everything derives from one ``random.Random(seed)``, so a workload is
reproducible across runs and execution paths — the property the serving
bench's bit-identity lines rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import InvalidArgumentError
from repro.query.predicates import Equals, InList, OrPredicate, Predicate

#: Default attribute domain: low cardinality, the regime where the
#: paper's encoded bitmap beats simple bitmaps (Section 4).
DEFAULT_VALUES = (
    "berlin",
    "cairo",
    "darmstadt",
    "kyoto",
    "lima",
    "oslo",
    "quito",
    "sydney",
)


class ZipfSampler:
    """Draw ranks ``0..n-1`` with probability ∝ ``1/(rank+1)^skew``.

    >>> sampler = ZipfSampler(4, skew=1.0, rng=random.Random(7))
    >>> counts = [0, 0, 0, 0]
    >>> for _ in range(1000):
    ...     counts[sampler.sample()] += 1
    >>> counts[0] > counts[3]
    True
    """

    def __init__(
        self, n: int, *, skew: float, rng: random.Random
    ) -> None:
        if n < 1:
            raise InvalidArgumentError(f"n must be >= 1, got {n}")
        if skew < 0:
            raise InvalidArgumentError(
                f"skew must be >= 0, got {skew}"
            )
        self._rng = rng
        weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def sample(self) -> int:
        point = self._rng.random()
        for rank, bound in enumerate(self._cdf):
            if point <= bound:
                return rank
        return len(self._cdf) - 1


@dataclass(frozen=True)
class ReadOp:
    """One read request: a predicate issued by a tenant."""

    tenant: str
    predicate: Predicate


@dataclass(frozen=True)
class WriteOp:
    """One write request: a row appended by a tenant."""

    tenant: str
    row: Dict[str, Any]


Operation = Union[ReadOp, WriteOp]


class SyntheticWorkload:
    """A reproducible stream of serving operations.

    Parameters (keyword-only)
    -------------------------
    seed:
        Seeds the single RNG everything draws from.
    tenants:
        Tenant names (or a count; names become ``tenant-0`` …).
    values:
        Attribute domain for the indexed ``region`` column.
    rows:
        Initial table size built by :meth:`build`.
    read_fraction:
        Probability an operation is a read (the rest append).
    skew:
        Zipf exponent shared by the value and tenant laws.
    partitions:
        Partition count of the table :meth:`build` creates (``None``:
        one partition).
    table / column:
        Override the table and indexed column the operations target —
        ``repro serve`` uses this to drive a *recovered* database
        instead of the synthetic ``events`` table.
    """

    TABLE = "events"
    COLUMN = "region"

    def __init__(
        self,
        *,
        seed: int = 0,
        tenants: Union[int, Sequence[str]] = 4,
        values: Sequence[str] = DEFAULT_VALUES,
        rows: int = 2048,
        read_fraction: float = 0.9,
        skew: float = 1.1,
        partitions: Optional[int] = None,
        table: Optional[str] = None,
        column: Optional[str] = None,
    ) -> None:
        if isinstance(tenants, int):
            if tenants < 1:
                raise InvalidArgumentError(
                    f"tenants must be >= 1, got {tenants}"
                )
            tenant_names = [f"tenant-{i}" for i in range(tenants)]
        else:
            tenant_names = list(tenants)
            if not tenant_names:
                raise InvalidArgumentError("tenants must be non-empty")
        if not values:
            raise InvalidArgumentError("values must be non-empty")
        if not 0.0 <= read_fraction <= 1.0:
            raise InvalidArgumentError(
                f"read_fraction must be in [0, 1], got {read_fraction}"
            )
        if rows < 1:
            raise InvalidArgumentError(f"rows must be >= 1, got {rows}")
        if table is not None:
            self.TABLE = table  # instance override shadows the class
        if column is not None:
            self.COLUMN = column
        self.seed = seed
        self.tenants = tenant_names
        self.values = list(values)
        self.rows = rows
        self.read_fraction = read_fraction
        self.skew = skew
        self.partitions = partitions
        self._rng = random.Random(seed)
        self._value_sampler = ZipfSampler(
            len(self.values), skew=skew, rng=self._rng
        )
        self._tenant_sampler = ZipfSampler(
            len(tenant_names), skew=skew, rng=self._rng
        )
        self._sequence = 0

    # ------------------------------------------------------------------
    def build(self, database: Any) -> None:
        """Create and populate the workload table (plus its index)."""
        rng = random.Random(self.seed ^ 0x5EED)
        data = {
            self.COLUMN: [
                self.values[rng.randrange(len(self.values))]
                for _ in range(self.rows)
            ],
            "amount": [rng.randrange(10_000) for _ in range(self.rows)],
        }
        database.create_table(
            self.TABLE, data, partitions=self.partitions
        )
        database.create_index(self.TABLE, self.COLUMN, kind="encoded")

    # ------------------------------------------------------------------
    def _read(self, tenant: str) -> ReadOp:
        first = self.values[self._value_sampler.sample()]
        shape = self._rng.random()
        predicate: Predicate
        if shape < 0.6:
            predicate = Equals(self.COLUMN, first)
        elif shape < 0.8:
            second = self.values[self._value_sampler.sample()]
            predicate = InList(self.COLUMN, [first, second])
        else:
            # Syntactic variant of the InList shape: canonically equal
            # predicates that exercise the cache's reduction-keyed
            # sharing.
            second = self.values[self._value_sampler.sample()]
            predicate = OrPredicate(
                (
                    Equals(self.COLUMN, first),
                    Equals(self.COLUMN, second),
                )
            )
        return ReadOp(tenant=tenant, predicate=predicate)

    def _write(self, tenant: str) -> WriteOp:
        value = self.values[self._value_sampler.sample()]
        self._sequence += 1
        return WriteOp(
            tenant=tenant,
            row={
                self.COLUMN: value,
                "amount": self._rng.randrange(10_000),
            },
        )

    def operations(self, count: int) -> Iterator[Operation]:
        """Yield ``count`` seeded operations (reads and appends)."""
        for _ in range(count):
            tenant = self.tenants[self._tenant_sampler.sample()]
            if self._rng.random() < self.read_fraction:
                yield self._read(tenant)
            else:
                yield self._write(tenant)


__all__ = [
    "DEFAULT_VALUES",
    "Operation",
    "ReadOp",
    "SyntheticWorkload",
    "WriteOp",
    "ZipfSampler",
]
