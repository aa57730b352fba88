"""Dynamic re-encoding cost model (Section 5, future work item 3).

"For application domains where the set of predefined selection
predicates changes over time, a model for evaluating the
cost-effectiveness of a reconstruction of the encoded bitmap indexes
is desirable."

The model: re-encoding rewrites all ``k`` vectors — ``O(n * k)`` bit
writes — and pays a one-time encoding search; it earns the per-query
difference in vectors accessed between the old and the candidate
encoding, weighted by the expected query frequencies.  Re-encoding
pays off when the amortised earnings over the planning horizon exceed
the rebuild cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.encoding.heuristics import (
    Predicate,
    encode_for_predicates,
    encoding_cost,
)
from repro.encoding.mapping import MappingTable
from repro.errors import InvalidArgumentError

if TYPE_CHECKING:
    from repro.index.encoded_bitmap import EncodedBitmapIndex


@dataclass(frozen=True)
class ReencodingDecision:
    """Outcome of a re-encoding evaluation."""

    #: vectors read per workload execution under the current mapping
    current_cost: float
    #: same under the best candidate found
    candidate_cost: float
    #: one-time rebuild cost in vector-bit writes (n * k)
    rebuild_cost: float
    #: executions of the workload needed to amortise the rebuild
    break_even_executions: float
    #: True when the horizon covers the break-even point
    worthwhile: bool
    candidate: MappingTable

    @property
    def saving_per_execution(self) -> float:
        return self.current_cost - self.candidate_cost


def evaluate_reencoding(
    current: MappingTable,
    predicates: Sequence[Predicate],
    table_size: int,
    horizon_executions: float,
    weights: Optional[Sequence[float]] = None,
    vector_read_cost: float = 1.0,
    bit_write_cost: float = 1.0 / 64.0,
    seed: Optional[int] = 0,
) -> ReencodingDecision:
    """Decide whether re-encoding for a new predicate set pays off.

    Parameters
    ----------
    current:
        The mapping currently deployed.
    predicates:
        The *new* predefined selections (with optional ``weights``).
    table_size:
        ``n`` — rows whose bits must be rewritten.
    horizon_executions:
        How many times the weighted workload is expected to run before
        the predicates change again.
    vector_read_cost / bit_write_cost:
        Relative cost units; the defaults charge one unit per vector
        read and one unit per 64 rewritten bits (a word write).
    """
    if horizon_executions < 0:
        raise InvalidArgumentError("horizon must be non-negative")
    current_cost = encoding_cost(current, predicates, weights)
    candidate = encode_for_predicates(
        current.domain(),
        predicates,
        weights=weights,
        reserve_void_zero=current.has_code(0)
        and current.decode(0) not in current.domain(),
        seed=seed,
    )
    candidate_cost = encoding_cost(candidate, predicates, weights)

    saving = (current_cost - candidate_cost) * vector_read_cost
    rebuild = table_size * candidate.width * bit_write_cost
    if saving <= 0:
        break_even = float("inf")
    else:
        break_even = rebuild / saving
    return ReencodingDecision(
        current_cost=current_cost,
        candidate_cost=candidate_cost,
        rebuild_cost=rebuild,
        break_even_executions=break_even,
        worthwhile=break_even <= horizon_executions,
        candidate=candidate,
    )


def apply_reencoding(
    index: "EncodedBitmapIndex", decision: ReencodingDecision
) -> None:
    """Rebuild an :class:`EncodedBitmapIndex` under the new mapping.

    Rewrites every bitmap vector in place (the O(n*k) cost the model
    charges) and installs the candidate mapping.
    """
    new_mapping = decision.candidate
    if set(new_mapping.domain()) != set(index.mapping.domain()):
        raise InvalidArgumentError(
            "candidate mapping does not cover the index domain"
        )
    translated = {}
    for value in index.mapping.values():
        if value in new_mapping:
            translated[value] = new_mapping.encode(value)
        else:
            # sentinels keep their old codes when absent from the
            # candidate (VOID stays at 0)
            translated[value] = index.mapping.encode(value)
    width = max(
        new_mapping.width,
        max(code.bit_length() for code in translated.values()) or 1,
    )
    rebuilt = MappingTable(width=width, reserve_void_zero=False)
    for value, code in translated.items():
        rebuilt.assign(value, code)

    nbits = len(index.table)
    # Swap the mapping, invalidate caches, rebuild every vector under
    # the new codes and bump the data version atomically under the
    # index's own lock (EBI302: foreign writes to another object's
    # _data_version are a protocol breach).
    index.apply_mapping(rebuilt)
    index.stats.maintenance_ops += nbits * width
