"""repro — Encoded Bitmap Indexing for Data Warehouses.

A full reproduction of Wu & Buchmann, *Encoded Bitmap Indexing for
Data Warehouses* (ICDE 1998): the encoded bitmap index itself, the
encoding theory (chains, prime chains, well-defined encodings), the
Section 2.3 applications (hierarchy / total-order / range-based
encodings, group-set indexes), every comparator index the paper
discusses, and the analytical cost models of Sections 2.1 and 3.

Quickstart — the :class:`Database` facade fronts the whole stack
(tables, indexes, planned/parallel execution, persistence, fsck)::

    from repro import Database, InList

    db = Database()
    db.create_table(
        "sales",
        {"product": ["a", "b", "c", "a", "b", "a"]},
        partitions=2,
    )
    db.create_index("sales", "product")
    result = db.query("sales", InList("product", ["a", "b"]))
    print(result.row_ids())        # [0 1 3 4 5]: int64 array of row ids
    print(result.cost.vectors_accessed)   # bitmap vectors read

The individual layers (:class:`Table`, :class:`EncodedBitmapIndex`,
:class:`Executor`, …) stay importable for direct use; see
``docs/api.md``.
"""

from repro._version import __version__
from repro.bitmap import BitVector, RunLengthBitmap
from repro.boolean import (
    Implicant,
    ReducedFunction,
    minimal_support,
    reduce_values,
)
from repro.encoding import (
    MappingTable,
    VOID,
    NULL,
    binary_distance,
    find_chain,
    find_prime_chain,
    is_chain,
    is_prime_chain,
    is_well_defined,
    encode_for_predicates,
    Hierarchy,
    hierarchy_encoding,
    bit_slice_encoding,
    order_preserving_encoding,
    partition_from_predicates,
    range_encoding,
)
from repro.table import Table, Column, Catalog, Dimension, FactTable, StarSchema
from repro.index import (
    EncodedBitmapIndex,
    SimpleBitmapIndex,
    BPlusTreeIndex,
    ProjectionIndex,
    BitSlicedIndex,
    ValueListIndex,
    DynamicBitmapIndex,
    RangeBitmapIndex,
    HybridBitmapBTreeIndex,
    GroupSetIndex,
)
from repro.query import (
    Equals,
    InList,
    Range,
    IsNull,
    AndPredicate,
    OrPredicate,
    NotPredicate,
)
from repro.query.executor import Executor, QueryResult
from repro.query.options import QueryOptions
from repro.query.planner import Plan, Planner
from repro.database import Database
from repro.serving import (
    QuotaManager,
    ResultCache,
    Server,
    ServerStats,
    SyntheticWorkload,
)
from repro.shard import (
    ParallelExecutor,
    PartitionedIndex,
    PartitionedQueryResult,
    PartitionedTable,
)
from repro.index.compressed import CompressedBitmapIndex
from repro.index.join_index import BitmapJoinIndex
from repro.index.paged import PagedEncodedBitmapIndex, PagedSimpleBitmapIndex
from repro.encoding.reencoding import evaluate_reencoding, apply_reencoding
from repro.encoding.mining import encoding_from_history, mine_workload
from repro.aggregate import (
    count,
    count_distinct,
    sum_bitsliced,
    sum_encoded,
    average_bitsliced,
    average_encoded,
    median,
    ntile_boundaries,
)

__all__ = [
    "__version__",
    # bitmap
    "BitVector",
    "RunLengthBitmap",
    # boolean
    "Implicant",
    "ReducedFunction",
    "reduce_values",
    "minimal_support",
    # encoding
    "MappingTable",
    "VOID",
    "NULL",
    "binary_distance",
    "find_chain",
    "find_prime_chain",
    "is_chain",
    "is_prime_chain",
    "is_well_defined",
    "encode_for_predicates",
    "Hierarchy",
    "hierarchy_encoding",
    "bit_slice_encoding",
    "order_preserving_encoding",
    "partition_from_predicates",
    "range_encoding",
    # tables
    "Table",
    "Column",
    "Catalog",
    "Dimension",
    "FactTable",
    "StarSchema",
    # indexes
    "EncodedBitmapIndex",
    "SimpleBitmapIndex",
    "BPlusTreeIndex",
    "ProjectionIndex",
    "BitSlicedIndex",
    "ValueListIndex",
    "DynamicBitmapIndex",
    "RangeBitmapIndex",
    "HybridBitmapBTreeIndex",
    "GroupSetIndex",
    # query
    "Equals",
    "InList",
    "Range",
    "IsNull",
    "AndPredicate",
    "OrPredicate",
    "NotPredicate",
    "Executor",
    "QueryOptions",
    "QueryResult",
    "Plan",
    "Planner",
    # facade + partition-parallel engine
    "Database",
    "ParallelExecutor",
    "PartitionedIndex",
    "PartitionedQueryResult",
    "PartitionedTable",
    # serving tier
    "QuotaManager",
    "ResultCache",
    "Server",
    "ServerStats",
    "SyntheticWorkload",
    # extensions (paper Section 5 future work)
    "CompressedBitmapIndex",
    "BitmapJoinIndex",
    "PagedEncodedBitmapIndex",
    "PagedSimpleBitmapIndex",
    "evaluate_reencoding",
    "apply_reencoding",
    "encoding_from_history",
    "mine_workload",
    "count",
    "count_distinct",
    "sum_bitsliced",
    "sum_encoded",
    "average_bitsliced",
    "average_encoded",
    "median",
    "ntile_boundaries",
]
