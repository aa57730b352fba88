"""Performance-contract rules (EBI1xx).

These enforce the structural assumptions behind the word-packed
bitmap design: hot paths must stay on word-level numpy operations
(one op per 64 bits), must not allocate fresh vectors per loop
iteration, and must keep every vector read visible to the paper's
cost accounting (distinct bitmap vectors accessed).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint.core import (
    Finding,
    LintContext,
    Rule,
    call_name,
    call_qualifier,
    identifiers_in,
    register_rule,
)

#: Identifiers that denote a *bit length* — looping ``range()`` over one
#: of these is a per-bit scan of the vector.
_BIT_LENGTH_NAMES = frozenset(
    {"nbits", "_nbits", "n_bits", "num_bits", "bit_count", "bitlen"}
)


def _mentions_bit_length(node: ast.AST) -> bool:
    return any(name in _BIT_LENGTH_NAMES for name in identifiers_in(node))


@register_rule
class BitLoopRule(Rule):
    """EBI101: no per-bit Python loops in word-packed hot paths.

    A ``for j in range(nbits)`` (or a ``while`` stepping a bit index up
    to ``nbits``) inside ``repro.bitmap`` or the expression evaluator
    defeats the 64-bits-per-op design the WAH-style compression
    literature assumes; such scans must be expressed as word-level
    numpy operations (skip zero words, extract set bits per word).
    """

    id = "EBI101"
    name = "per-bit-loop"
    description = (
        "per-bit loop over bit indices in a word-packed hot path; "
        "use word-level numpy ops instead"
    )
    rationale = (
        "Performance contract: bitmap kernels operate on 64-bit words, "
        "not individual bits (Section 3 cost model counts vector "
        "accesses, assuming word-parallel logical ops)."
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_package("repro.bitmap") or ctx.module == (
            "repro.boolean.evaluator"
        )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterator = node.iter
                if (
                    isinstance(iterator, ast.Call)
                    and isinstance(iterator.func, ast.Name)
                    and iterator.func.id == "range"
                    and any(_mentions_bit_length(arg) for arg in iterator.args)
                ):
                    yield self.finding(ctx, node)
            elif isinstance(node, ast.While):
                if isinstance(node.test, ast.Compare) and _mentions_bit_length(
                    node.test
                ):
                    yield self.finding(ctx, node)


#: BitVector classmethod constructors that allocate a fresh vector.
_VECTOR_CONSTRUCTORS = frozenset(
    {"ones", "zeros", "from_bools", "from_indices", "from_mask"}
)

#: Query-evaluation hot paths where per-iteration vector allocation is
#: a measurable regression (one fresh numpy array per loop pass).
_HOT_PATH_MODULES = frozenset(
    {
        "repro.boolean.evaluator",
        "repro.query.executor",
        "repro.index.encoded_bitmap",
        "repro.index.paged",
    }
)


def _is_vector_allocation(node: ast.Call) -> bool:
    if isinstance(node.func, ast.Name):
        return node.func.id == "BitVector"
    return (
        call_qualifier(node) == "BitVector"
        and call_name(node) in _VECTOR_CONSTRUCTORS
    )


@register_rule
class AllocInLoopRule(Rule):
    """EBI102: no ``BitVector`` construction inside hot-path loops.

    Evaluator/executor loops run once per DNF term or plan operand;
    allocating a vector per iteration turns an O(terms) pass into
    O(terms) array allocations.  Hoist the allocation before the loop
    and combine in place (``&=``/``|=``).
    """

    id = "EBI102"
    name = "vector-alloc-in-loop"
    description = (
        "BitVector allocated inside a query-evaluation loop; hoist the "
        "allocation out of the loop and combine in place"
    )
    rationale = (
        "Performance contract: result vectors are allocated once per "
        "evaluation, not once per term/operand iteration."
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.module in _HOT_PATH_MODULES

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        seen: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and _is_vector_allocation(sub)
                    and id(sub) not in seen
                    and not self._in_nested_function(node, sub)
                ):
                    seen.add(id(sub))
                    yield self.finding(ctx, sub)

    @staticmethod
    def _in_nested_function(loop: ast.AST, call: ast.Call) -> bool:
        """Is ``call`` inside a def/lambda nested within ``loop``?

        Such code runs per *invocation*, not per loop iteration.
        """
        for node in ast.walk(loop):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                for sub in ast.walk(node):
                    if sub is call:
                        return True
        return False


@register_rule
class SlowPopcountRule(Rule):
    """EBI104: use ``int.bit_count()``, not ``bin(x).count("1")``.

    Popcounts sit on the inner loops of Hamming-distance, chain-search
    and implicant machinery; the string round-trip allocates a str per
    call and is ~5x slower than the native ``bit_count`` available
    since Python 3.10 (the floor ``pyproject.toml`` declares).
    """

    id = "EBI104"
    name = "slow-popcount"
    description = (
        'bin(x).count("1") popcount; use x.bit_count() '
        "(native, no string allocation)"
    )
    rationale = (
        "Performance contract: distance/chain kernels run popcount per "
        "code pair; the string formatting dominates their cost."
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and call_name(node) == "count"
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "bin"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "1"
            ):
                yield self.finding(ctx, node)


#: Identifiers that (by project convention) bind ``BitVector`` values.
_VECTORISH_NAMES = frozenset(
    {
        "vector",
        "vec",
        "bv",
        "bitvector",
        "bit_vector",
        "bitmap",
        "term_vector",
        "literal",
    }
)

#: In-place spellings for the binary ops that would otherwise build a
#: throwaway ``BitVector`` (``__iand__``/``__ior__``/``__ixor__`` all
#: run ``np.bitwise_*(..., out=...)``; ``&~`` has ``iandnot``).
_INPLACE_SPELLING = {
    ast.BitAnd: "&=",
    ast.BitOr: "|=",
    ast.BitXor: "^=",
}


def _vectorish(node: ast.AST) -> bool:
    """Does this expression *look like* a BitVector by naming convention?"""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name in _VECTORISH_NAMES or name.endswith(("_vector", "_vec"))


def _binding_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return ast.dump(node)
    return ""


@register_rule
class BitVectorLoopRule(Rule):
    """EBI105: bit-at-a-time BitVector use inside ``src/repro`` loops.

    Two shapes defeat the word-packed design anywhere in the library
    (tests and docs lint with ``module=None`` and are exempt):

    * iterating a ``BitVector`` directly (``for bit in vector`` or
      ``for j in range(len(vector))``) — a per-*bit* Python loop over
      data stored 64 bits per word; use :meth:`BitVector.iter_set_bits`,
      :meth:`~BitVector.indices` or a word-level numpy op instead;
    * rebinding ``x = x & y`` / ``| y`` / ``^ y`` inside a loop body —
      each pass allocates a fresh vector although an in-place ``out=``
      variant (``&=``, ``|=``, ``^=``) exists.
    """

    id = "EBI105"
    name = "bitvector-per-bit-loop"
    description = (
        "bit-at-a-time BitVector use in a loop; iterate set bits / "
        "use the in-place out= operator variant instead"
    )
    rationale = (
        "Performance contract: compiled kernels and evaluators touch "
        "64 bits per operation; per-bit Python iteration or a fresh "
        "vector per loop pass forfeits that factor."
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_package("repro")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        seen: Set[int] = set()
        for loop in ast.walk(ctx.tree):
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(ctx, loop)
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for sub in ast.walk(loop):
                if (
                    isinstance(sub, ast.Assign)
                    and id(sub) not in seen
                    and not AllocInLoopRule._in_nested_function(loop, sub)
                ):
                    finding = self._check_rebinding(ctx, sub)
                    if finding is not None:
                        seen.add(id(sub))
                        yield finding

    def _check_iteration(
        self, ctx: LintContext, loop: ast.For
    ) -> Iterator[Finding]:
        iterator = loop.iter
        if _vectorish(iterator):
            yield self.finding(
                ctx,
                loop,
                "per-bit iteration over a BitVector; use "
                "iter_set_bits()/indices() or word-level numpy ops",
            )
            return
        # for j in range(len(vector)): ...
        if (
            isinstance(iterator, ast.Call)
            and isinstance(iterator.func, ast.Name)
            and iterator.func.id == "range"
        ):
            for arg in iterator.args:
                if (
                    isinstance(arg, ast.Call)
                    and isinstance(arg.func, ast.Name)
                    and arg.func.id == "len"
                    and arg.args
                    and _vectorish(arg.args[0])
                ):
                    yield self.finding(
                        ctx,
                        loop,
                        "per-bit index loop over a BitVector length; "
                        "use iter_set_bits()/indices() or word-level "
                        "numpy ops",
                    )

    def _check_rebinding(
        self, ctx: LintContext, assign: ast.Assign
    ) -> Optional[Finding]:
        value = assign.value
        if not isinstance(value, ast.BinOp):
            return None
        spelling = _INPLACE_SPELLING.get(type(value.op))
        if spelling is None:
            return None
        if len(assign.targets) != 1:
            return None
        target = _binding_name(assign.targets[0])
        if not target or target != _binding_name(value.left):
            return None
        if not (_vectorish(assign.targets[0]) or _vectorish(value.left)):
            return None
        return self.finding(
            ctx,
            assign,
            f"BitVector temporary rebuilt every iteration; use the "
            f"in-place '{spelling}' (out=) variant",
        )


_EVALUATOR_ENTRYPOINTS = frozenset({"evaluate_dnf", "evaluate_expression"})


@register_rule
class UncountedEvalRule(Rule):
    """EBI103: evaluator calls must flow through the AccessCounter.

    The paper charges every query in distinct bitmap vectors accessed
    (Section 3, footnote 4).  Index and query modules calling the
    evaluator without passing a counter silently drop reads from the
    measured ``c_e``/``c_s``.
    """

    id = "EBI103"
    name = "uncounted-evaluation"
    description = (
        "evaluator called without an AccessCounter; vector reads "
        "would escape the paper's cost accounting"
    )
    rationale = (
        "Cost-accounting contract: every vector fetched during query "
        "evaluation is recorded as one access (Section 3 cost unit)."
    )

    #: Position of the ``counter`` parameter in the evaluator API.
    _COUNTER_ARG_POSITION = 3

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_package("repro.index", "repro.query")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) not in _EVALUATOR_ENTRYPOINTS:
                continue
            has_positional = len(node.args) > self._COUNTER_ARG_POSITION
            has_keyword = any(
                keyword.arg == "counter" for keyword in node.keywords
            )
            if not has_positional and not has_keyword:
                yield self.finding(ctx, node)


#: Decompression entry points a run iterator replaces.
_DECOMPRESS_METHODS = frozenset({"to_bitvector", "to_words"})

#: Substrings that mark a receiver as a run-compressed bitmap.
_RUNNISH_FRAGMENTS = ("compressed", "wah", "rle")

#: Whole identifier tokens that mark the same (substring matching
#: would drag in ``prune``/``truncate``-style names).
_RUNNISH_TOKENS = frozenset({"run", "runs"})


def _runnish(name: str) -> bool:
    lowered = name.lower()
    if any(fragment in lowered for fragment in _RUNNISH_FRAGMENTS):
        return True
    return any(
        token in _RUNNISH_TOKENS for token in lowered.split("_")
    )


def _receiver_name(call: ast.Call) -> str:
    """The name of the object a method call decompresses."""
    if not isinstance(call.func, ast.Attribute):
        return ""
    receiver = call.func.value
    if isinstance(receiver, ast.Name):
        return receiver.id
    if isinstance(receiver, ast.Attribute):
        return receiver.attr
    if isinstance(receiver, ast.Call):
        return call_name(receiver) or ""
    return ""


@register_rule
class RunDecompressLoopRule(Rule):
    """EBI106: whole-vector decompression inside a ``src/repro`` loop.

    Calling ``to_bitvector()`` / ``to_words()`` on a run-compressed
    bitmap (``RunLengthBitmap``, ``WordAlignedBitmap``,
    ``CompressedPlaneSet`` planes) inside a loop inflates every
    iteration to O(n) bits, forfeiting exactly the compression the
    reorder pass bought (docs/compression.md).  Logical work belongs
    on the runs themselves: segment-merge operators (``&``, ``|``),
    ``runs`` / ``segments`` iteration, or one materialisation hoisted
    out of the loop.
    """

    id = "EBI106"
    name = "run-decompress-in-loop"
    description = (
        "run-compressed bitmap decompressed inside a loop; operate "
        "on the runs (segment merge / run iteration) or hoist the "
        "one materialisation out of the loop"
    )
    rationale = (
        "Performance contract: run kernels cost O(segments) per "
        "vector; a per-iteration decompress rebuilds O(n) bits every "
        "pass and defeats word-aligned compression."
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_package("repro")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        seen: Set[int] = set()
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for sub in ast.walk(loop):
                if (
                    isinstance(sub, ast.Call)
                    and id(sub) not in seen
                    and call_name(sub) in _DECOMPRESS_METHODS
                    and _runnish(_receiver_name(sub))
                ):
                    seen.add(id(sub))
                    yield self.finding(ctx, sub)


#: Methods that copy a memory-mapped plane set densely into RAM.
_MATERIALIZE_METHODS = frozenset({"materialize"})

#: Copy methods that, applied to a mapped receiver, fault the whole
#: file in (``.copy()`` on the memmap matrix or the plane set).
_COPY_METHODS = frozenset({"copy"})

#: numpy constructors that densify their argument.
_DENSIFY_FUNCS = frozenset({"asarray", "array", "ascontiguousarray"})

#: Substrings that mark a receiver as memory-mapped by project
#: convention (``MappedPlaneSet``, ``np.memmap`` bindings).
_MAPPEDISH_FRAGMENTS = ("mapped", "memmap", "mmap")


def _mappedish(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _MAPPEDISH_FRAGMENTS)


def _arg_root_name(node: ast.AST) -> str:
    """The leftmost identifier of ``x`` / ``x.attr`` / ``x.attr.attr``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _mentions_mapped(node: ast.AST) -> bool:
    return any(_mappedish(name) for name in identifiers_in(node))


@register_rule
class MappedMaterializeLoopRule(Rule):
    """EBI108: full materialisation of mapped planes inside a loop.

    A ``MappedPlaneSet`` exists so kernels evaluate *through* the
    mapped view, paying only for the plane rows a reduced
    function touches (docs/out_of_core.md).  Calling
    ``materialize()`` / ``.copy()`` on a mapped receiver — or
    densifying one via ``np.asarray``/``np.array`` — inside a loop
    faults the entire plane file into fresh RAM every iteration,
    defeating both the memory budget and the Section 3 page
    accounting.  Materialise once outside the loop (and only when the
    residency budget allows a promotion), or keep the evaluation on
    the mapped rows.
    """

    id = "EBI108"
    name = "mapped-materialize-in-loop"
    description = (
        "memory-mapped plane set fully materialised inside a loop; "
        "evaluate through the mapped view or hoist a single "
        "materialisation out of the loop"
    )
    rationale = (
        "Out-of-core contract: mapped planes are read page-wise, "
        "charged to the residency budget; a per-iteration densify "
        "re-reads the whole file and allocates its full footprint "
        "every pass."
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_package("repro")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        seen: Set[int] = set()
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for sub in ast.walk(loop):
                if (
                    not isinstance(sub, ast.Call)
                    or id(sub) in seen
                    or AllocInLoopRule._in_nested_function(loop, sub)
                ):
                    continue
                if self._is_mapped_densify(sub):
                    seen.add(id(sub))
                    yield self.finding(ctx, sub)

    @staticmethod
    def _is_mapped_densify(call: ast.Call) -> bool:
        name = call_name(call)
        # mapped.materialize() / snapshot.mapped_planes.materialize()
        if name in _MATERIALIZE_METHODS:
            receiver = _receiver_name(call)
            root = (
                _arg_root_name(call.func.value)
                if isinstance(call.func, ast.Attribute)
                else ""
            )
            return _mappedish(receiver) or _mappedish(root)
        # mapped.copy() / mapped.matrix.copy()
        if name in _COPY_METHODS and isinstance(call.func, ast.Attribute):
            return _mentions_mapped(call.func.value)
        # np.asarray(mapped.matrix) / np.array(mapped_planes)
        if (
            name in _DENSIFY_FUNCS
            and call_qualifier(call) in {"np", "numpy"}
            and call.args
        ):
            return _mentions_mapped(call.args[0])
        return False
