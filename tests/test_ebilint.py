"""Tests for ebilint itself: one positive + one negative fixture per
rule, plus the suppression pragmas, the baseline mechanism, and the
CLI exit codes the CI gate relies on."""

import json
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import all_rules, get_rule, lint_paths, lint_source
from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.cli import main as lint_main
from repro.lint.core import Severity
from repro.lint.runner import PARSE_ERROR_RULE, Report, module_name_for


def findings_for(rule_id, source, module):
    """Run a single rule over a dedented fixture."""
    return [
        f
        for f in lint_source(
            textwrap.dedent(source), path="<fixture>", module=module
        )
        if f.rule == rule_id
    ]


# ----------------------------------------------------------------------
# registry sanity
# ----------------------------------------------------------------------
def test_registry_ships_at_least_eight_rules():
    rules = all_rules()
    ids = [rule.id for rule in rules]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 8
    for expected in (
        "EBI101", "EBI102", "EBI103", "EBI104",
        "EBI201", "EBI202", "EBI203", "EBI204",
    ):
        assert expected in ids


def test_every_rule_documents_itself():
    for rule in all_rules():
        assert rule.description
        assert rule.rationale
        assert rule.severity is Severity.ERROR


def test_get_rule_unknown_id():
    with pytest.raises(KeyError):
        get_rule("EBI999")


# ----------------------------------------------------------------------
# EBI101 — per-bit loops in word-packed hot paths
# ----------------------------------------------------------------------
def test_ebi101_flags_per_bit_for_loop():
    bad = """
        def scan(self):
            out = []
            for j in range(self._nbits):
                if self[j]:
                    out.append(j)
            return out
    """
    found = findings_for("EBI101", bad, module="repro.bitmap.fake")
    assert len(found) == 1
    assert "per-bit" in found[0].message


def test_ebi101_flags_while_over_bit_index():
    bad = """
        def scan(nbits):
            j = 0
            while j < nbits:
                j += 1
    """
    assert findings_for("EBI101", bad, module="repro.boolean.evaluator")


def test_ebi101_accepts_word_level_loop():
    good = """
        def scan(self):
            for word_index in np.nonzero(self._words)[0]:
                word = int(self._words[word_index])
                while word:
                    word &= word - 1
    """
    assert not findings_for("EBI101", good, module="repro.bitmap.fake")


def test_ebi101_out_of_scope_module_is_ignored():
    bad = """
        def scan(nbits):
            for j in range(nbits):
                pass
    """
    assert not findings_for("EBI101", bad, module="repro.table.fake")
    assert not findings_for("EBI101", bad, module=None)


# ----------------------------------------------------------------------
# EBI102 — BitVector allocation inside hot-path loops
# ----------------------------------------------------------------------
def test_ebi102_flags_allocation_in_loop():
    bad = """
        def evaluate(terms, nbits):
            result = BitVector.zeros(nbits)
            for term in terms:
                result |= BitVector.ones(nbits)
            return result
    """
    found = findings_for("EBI102", bad, module="repro.boolean.evaluator")
    assert len(found) == 1


def test_ebi102_accepts_hoisted_allocation():
    good = """
        def evaluate(terms, nbits):
            result = BitVector.zeros(nbits)
            for term in terms:
                result |= term.vector
            return result
    """
    assert not findings_for("EBI102", good, module="repro.boolean.evaluator")


def test_ebi102_ignores_nested_function_bodies():
    good = """
        def evaluate(terms, nbits):
            for term in terms:
                def fetch():
                    return BitVector.zeros(nbits)
                register(fetch)
    """
    assert not findings_for("EBI102", good, module="repro.query.executor")


def test_ebi102_only_hot_path_modules():
    bad = """
        def build(rows, nbits):
            vectors = []
            for _ in range(8):
                vectors.append(BitVector.zeros(nbits))
            return vectors
    """
    # Index *construction* loops legitimately allocate per iteration.
    assert not findings_for("EBI102", bad, module="repro.index.builder")


# ----------------------------------------------------------------------
# EBI103 — evaluator calls must pass an AccessCounter
# ----------------------------------------------------------------------
def test_ebi103_flags_uncounted_call():
    bad = """
        def run(function, source, nbits):
            return evaluate_dnf(function, source, nbits)
    """
    found = findings_for("EBI103", bad, module="repro.query.fake")
    assert len(found) == 1
    assert "AccessCounter" in found[0].message


def test_ebi103_accepts_counter_keyword_and_positional():
    good = """
        def run(function, source, nbits, counter):
            a = evaluate_dnf(function, source, nbits, counter)
            b = evaluate_expression(expr, source, nbits, counter=counter)
            return a, b
    """
    assert not findings_for("EBI103", good, module="repro.index.fake")


def test_ebi103_scope_is_index_and_query_only():
    bad = """
        def run(function, source, nbits):
            return evaluate_dnf(function, source, nbits)
    """
    assert not findings_for("EBI103", bad, module="repro.analysis.fake")


# ----------------------------------------------------------------------
# EBI104 — slow string-based popcount
# ----------------------------------------------------------------------
def test_ebi104_flags_bin_count_popcount():
    bad = """
        def distance(x, y):
            return bin(x ^ y).count("1")
    """
    found = findings_for("EBI104", bad, module="repro.encoding.distance")
    assert len(found) == 1
    assert "bit_count" in found[0].message


def test_ebi104_accepts_native_bit_count():
    good = """
        def distance(x, y):
            return (x ^ y).bit_count()
    """
    assert not findings_for("EBI104", good, module="repro.encoding.distance")


def test_ebi104_ignores_other_count_calls():
    good = """
        def zeros(text):
            return bin(7).count("0") + text.count("1")
    """
    # counting "0" digits or counting on a non-bin() receiver is not
    # the popcount idiom.
    assert not findings_for("EBI104", good, module=None)


# ----------------------------------------------------------------------
# EBI105 — bit-at-a-time BitVector use in src/repro loops
# ----------------------------------------------------------------------
def test_ebi105_flags_direct_vector_iteration():
    bad = """
        def collect(vector):
            out = []
            for bit in vector:
                out.append(bit)
            return out
    """
    found = findings_for("EBI105", bad, module="repro.aggregate.fake")
    assert len(found) == 1
    assert "per-bit iteration" in found[0].message


def test_ebi105_flags_range_len_vector_loop():
    bad = """
        def collect(result_vector):
            for j in range(len(result_vector)):
                use(result_vector[j])
    """
    found = findings_for("EBI105", bad, module="repro.query.fake")
    assert len(found) == 1
    assert "index loop" in found[0].message


def test_ebi105_flags_rebinding_temporary_in_loop():
    bad = """
        def combine(vectors, selection):
            for vector in vectors:
                vector = vector & selection
                yield vector.count()
    """
    found = findings_for("EBI105", bad, module="repro.aggregate.fake")
    assert len(found) == 1
    assert "&=" in found[0].message


def test_ebi105_accepts_inplace_and_word_level_forms():
    good = """
        def combine(vectors, selection):
            for vector in vectors:
                vector &= selection
                yield vector.count()

        def positions(vector):
            for j in vector.iter_set_bits():
                yield j

        def fresh(vectors, other):
            for vector in vectors:
                merged = vector & other
                yield merged
    """
    assert not findings_for("EBI105", good, module="repro.aggregate.fake")


def test_ebi105_exempt_outside_repro_package():
    bad = """
        def collect(vector):
            for bit in vector:
                pass
    """
    assert not findings_for("EBI105", bad, module=None)


def test_ebi105_ignores_nested_function_bodies():
    good = """
        def plans(vectors, selection):
            for vector in vectors:
                def thunk(vector=vector):
                    vector = vector & selection
                    return vector
                yield thunk
    """
    assert not findings_for("EBI105", good, module="repro.aggregate.fake")


# ----------------------------------------------------------------------
# EBI106 — run-compressed bitmap decompressed inside a loop
# ----------------------------------------------------------------------
def test_ebi106_flags_decompress_in_loop():
    bad = """
        def total(compressed_planes):
            total = 0
            for compressed in compressed_planes:
                total += compressed.to_bitvector().count()
            return total
    """
    found = findings_for("EBI106", bad, module="repro.aggregate.fake")
    assert len(found) == 1
    assert "decompressed inside a loop" in found[0].message


def test_ebi106_flags_to_words_on_wah_receiver():
    bad = """
        def scan(index, queries):
            while queries:
                queries.pop()
                use(index.wah_plane.to_words())
    """
    assert findings_for("EBI106", bad, module="repro.kernels.fake")


def test_ebi106_flags_chained_plane_call():
    bad = """
        def pages(runs, touched):
            for i in touched:
                yield runs.plane(i).to_bitvector()
    """
    # receiver is the ``runs.plane(i)`` call — named by the callee.
    assert not findings_for("EBI106", bad, module="repro.bench.fake")
    bad_runs = """
        def pages(snapshot, touched):
            for i in touched:
                yield snapshot.runs(i).to_bitvector()
    """
    assert findings_for("EBI106", bad_runs, module="repro.bench.fake")


def test_ebi106_accepts_run_level_work_and_hoisting():
    good = """
        def merge(compressed_planes, selection):
            result = selection
            for compressed in compressed_planes:
                result = result & compressed
            return result.to_bitvector()

        def runwise(rle):
            for bit, length in rle.runs:
                yield bit, length

        def hoisted(compressed, positions):
            vector = compressed.to_bitvector()
            for j in positions:
                yield vector[j]
    """
    assert not findings_for("EBI106", good, module="repro.aggregate.fake")


def test_ebi106_ignores_non_runnish_receivers():
    good = """
        def prune(pruned_set, trunk):
            for entry in trunk:
                use(pruned_set.to_bitvector())
                use(entry.page.to_words())
    """
    # substring "run" inside prune/trunk must not count; only whole
    # tokens and the compressed/wah/rle fragments do.
    assert not findings_for("EBI106", good, module="repro.aggregate.fake")


def test_ebi106_exempt_outside_repro_package():
    bad = """
        def total(compressed_planes):
            for compressed in compressed_planes:
                use(compressed.to_bitvector())
    """
    assert not findings_for("EBI106", bad, module=None)


# ----------------------------------------------------------------------
# EBI108 — mapped planes fully materialised inside a loop
# ----------------------------------------------------------------------
def test_ebi108_flags_materialize_in_loop():
    bad = """
        def scan(mapped_planes, queries):
            for q in queries:
                dense = mapped_planes.materialize()
                use(dense, q)
    """
    found = findings_for("EBI108", bad, module="repro.query.fake")
    assert len(found) == 1
    assert "materialised inside a loop" in found[0].message


def test_ebi108_flags_copy_and_asarray_densify():
    bad_copy = """
        def pages(snapshot, touched):
            for i in touched:
                yield snapshot.mapped.matrix.copy()[i]
    """
    assert findings_for("EBI108", bad_copy, module="repro.kernels.fake")
    bad_asarray = """
        import numpy as np

        def rows(mapped_planes, indices):
            while indices:
                indices.pop()
                use(np.asarray(mapped_planes.matrix))
    """
    assert findings_for(
        "EBI108", bad_asarray, module="repro.kernels.fake"
    )


def test_ebi108_accepts_hoisted_and_mapped_row_access():
    good = """
        import numpy as np

        def hoisted(mapped_planes, queries):
            dense = mapped_planes.materialize()
            for q in queries:
                use(dense, q)

        def rowwise(mapped, rows):
            for i in rows:
                yield mapped.matrix[mapped.row(i, True)]

        def dense_copy(planes, rows):
            for i in rows:
                use(np.asarray(planes.matrix))
    """
    assert not findings_for("EBI108", good, module="repro.query.fake")


def test_ebi108_ignores_nested_function_bodies():
    good = """
        def build(mapped_planes, queries):
            thunks = []
            for q in queries:
                thunks.append(lambda: mapped_planes.materialize())
            return thunks
    """
    assert not findings_for("EBI108", good, module="repro.query.fake")


def test_ebi108_exempt_outside_repro_package():
    bad = """
        def scan(mapped_planes, queries):
            for q in queries:
                use(mapped_planes.materialize())
    """
    assert not findings_for("EBI108", bad, module=None)


# ----------------------------------------------------------------------
# EBI201 — code 0 is reserved for the VOID sentinel (Theorem 2.1)
# ----------------------------------------------------------------------
def test_ebi201_flags_assign_zero_to_real_value():
    bad = """
        def build(table):
            table.assign("red", 0)
    """
    assert findings_for("EBI201", bad, module=None)


def test_ebi201_accepts_void_on_zero():
    good = """
        def build(table):
            table.assign(VOID, 0)
            table.assign("red", 1)
    """
    assert not findings_for("EBI201", good, module=None)


def test_ebi201_flags_from_pairs_literal():
    bad = """
        table = MappingTable.from_pairs(
            [("red", 0), ("blue", 1)], reserve_void_zero=True
        )
    """
    found = findings_for("EBI201", bad, module=None)
    assert len(found) == 1
    assert "Theorem 2.1" in found[0].message


def test_ebi201_from_pairs_without_void_reservation_ok():
    good = """
        table = MappingTable.from_pairs([("red", 0), ("blue", 1)])
    """
    assert not findings_for("EBI201", good, module=None)


# ----------------------------------------------------------------------
# EBI202 — encoding constructors must run check_mapping
# ----------------------------------------------------------------------
def test_ebi202_flags_unchecked_constructor():
    bad = """
        def my_encoding(values) -> MappingTable:
            return MappingTable.from_values(values)
    """
    found = findings_for("EBI202", bad, module="repro.encoding.fake")
    assert len(found) == 1
    assert "check_mapping" in found[0].message


def test_ebi202_accepts_checked_constructor():
    good = """
        def my_encoding(values) -> MappingTable:
            table = MappingTable.from_values(values)
            return check_mapping(table)
    """
    assert not findings_for("EBI202", good, module="repro.encoding.fake")


def test_ebi202_ignores_private_and_non_mapping_functions():
    good = """
        def _helper(values) -> MappingTable:
            return MappingTable.from_values(values)

        def width_of(values) -> int:
            return len(values)
    """
    assert not findings_for("EBI202", good, module="repro.encoding.fake")


def test_ebi202_primitive_modules_exempt():
    bad = """
        def from_values(values) -> MappingTable:
            return MappingTable(values)
    """
    assert not findings_for("EBI202", bad, module="repro.encoding.mapping")


# ----------------------------------------------------------------------
# EBI203 — expression factories, not raw operand tuples
# ----------------------------------------------------------------------
def test_ebi203_flags_raw_tuple_construction():
    bad = """
        def plan(a, b):
            return And((Var(0), Var(1)))
    """
    assert findings_for("EBI203", bad, module="repro.query.planner")


def test_ebi203_accepts_factories_and_operators():
    good = """
        def plan(a, b):
            return and_(var(0), var(1)) | or_(var(2))
    """
    assert not findings_for("EBI203", good, module="repro.query.planner")


def test_ebi203_boolean_package_itself_exempt():
    internal = """
        def dnf(terms):
            return Or(tuple(terms)) if terms else And((Const(True),))
    """
    assert not findings_for("EBI203", internal, module="repro.boolean.expr")
    # Tests/examples (module=None) may also build raw nodes freely.
    assert not findings_for("EBI203", internal, module=None)


# ----------------------------------------------------------------------
# EBI204 — mutable default arguments
# ----------------------------------------------------------------------
def test_ebi204_flags_mutable_defaults():
    bad = """
        def record(accesses=[], stats={}, *, seen=set()):
            accesses.append(1)
    """
    found = findings_for("EBI204", bad, module=None)
    assert len(found) == 3


def test_ebi204_flags_factory_call_default():
    bad = """
        def record(stats=dict()):
            pass
    """
    assert findings_for("EBI204", bad, module="repro.query.fake")


def test_ebi204_accepts_none_and_immutable_defaults():
    good = """
        def record(accesses=None, width=0, names=(), label="x"):
            if accesses is None:
                accesses = []
    """
    assert not findings_for("EBI204", good, module=None)


# ----------------------------------------------------------------------
# EBI000 — parse failures are findings, not crashes
# ----------------------------------------------------------------------
def test_syntax_error_reported_as_finding():
    findings = lint_source("def broken(:\n", path="<fixture>")
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_RULE
    assert findings[0].severity is Severity.ERROR


# ----------------------------------------------------------------------
# suppression pragmas
# ----------------------------------------------------------------------
def test_line_suppression():
    source = """
        def record(stats={}):  # ebilint: disable=EBI204
            pass
    """
    assert not findings_for("EBI204", source, module=None)


def test_line_suppression_is_rule_specific():
    source = """
        def record(stats={}):  # ebilint: disable=EBI101
            pass
    """
    assert findings_for("EBI204", source, module=None)


def test_file_suppression():
    source = """
        # ebilint: disable-file=EBI204
        def record(stats={}):
            pass

        def record2(stats={}):
            pass
    """
    assert not findings_for("EBI204", source, module=None)


def test_all_wildcard_suppression():
    source = """
        def record(stats={}):  # ebilint: disable=all
            pass
    """
    assert not findings_for("EBI204", source, module=None)


def test_pragma_inside_string_not_honoured():
    source = '''
        PRAGMA = "# ebilint: disable-file=EBI204"

        def record(stats={}):
            pass
    '''
    assert findings_for("EBI204", source, module=None)


# ----------------------------------------------------------------------
# baseline mechanism
# ----------------------------------------------------------------------
BAD_MODULE = textwrap.dedent(
    """
    def record(stats={}):
        pass
    """
)


def test_baseline_absorbs_known_findings(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(BAD_MODULE)
    baseline_file = tmp_path / "baseline.json"

    report = lint_paths([target])
    assert len(report.findings) == 1
    write_baseline(baseline_file, report.findings)

    rerun = lint_paths([target], baseline_path=baseline_file)
    assert rerun.findings == []
    assert rerun.stale_baseline == []
    assert rerun.exit_code == 0


def test_baseline_survives_line_drift(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(BAD_MODULE)
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, lint_paths([target]).findings)

    # Shift the offending line down; the fingerprint keys on the
    # source text, so the entry still absorbs it.
    target.write_text("\n\n# moved\n" + BAD_MODULE)
    rerun = lint_paths([target], baseline_path=baseline_file)
    assert rerun.findings == []
    assert rerun.exit_code == 0


def test_baseline_reports_stale_entries(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(BAD_MODULE)
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, lint_paths([target]).findings)

    target.write_text("def record(stats=None):\n    pass\n")
    rerun = lint_paths([target], baseline_path=baseline_file)
    assert rerun.findings == []
    assert len(rerun.stale_baseline) == 1
    assert rerun.exit_code == 1  # stale entries must be ratcheted out


def test_baseline_does_not_absorb_new_findings(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(BAD_MODULE)
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, lint_paths([target]).findings)

    target.write_text(BAD_MODULE + "\ndef extra(seen=set()):\n    pass\n")
    rerun = lint_paths([target], baseline_path=baseline_file)
    assert len(rerun.findings) == 1
    assert "seen" in rerun.findings[0].source_line
    assert rerun.exit_code == 1


def test_baseline_counts_duplicate_fingerprints():
    twin = Counter({"EBI204::<fixture>::x": 1})
    # Two findings with the identical source text (a redefinition) share
    # a fingerprint; the count bounds how many the baseline absorbs.
    findings = lint_source(
        "def f(a={}):\n    pass\n\ndef f(a={}):\n    pass\n",
        path="p.py",
    )
    assert len(findings) == 2
    fp = findings[0].fingerprint()
    assert findings[1].fingerprint() == fp
    fresh, stale = apply_baseline(findings, Counter({fp: 1}))
    assert len(fresh) == 1  # one absorbed, the twin is fresh
    assert stale == []
    fresh, stale = apply_baseline(findings, twin)
    assert len(fresh) == 2


def test_load_baseline_rejects_unknown_version(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({"version": 99, "findings": {}}))
    with pytest.raises(ValueError):
        load_baseline(bad)
    assert load_baseline(tmp_path / "missing.json") == Counter()


# ----------------------------------------------------------------------
# module scoping + CLI
# ----------------------------------------------------------------------
def test_module_name_for_maps_src_layout():
    assert (
        module_name_for(Path("src/repro/bitmap/bitvector.py"))
        == "repro.bitmap.bitvector"
    )
    assert module_name_for(Path("src/repro/lint/__init__.py")) == "repro.lint"
    assert module_name_for(Path("tests/test_ebilint.py")) is None


def test_report_exit_code_clean():
    assert Report().exit_code == 0


def test_cli_exits_nonzero_on_violating_tree(tmp_path, capsys):
    # A fixture tree violating every shipped rule family must fail the
    # run even though module-scoped rules don't apply outside src/repro:
    # EBI204/EBI201 are everywhere-scoped, and a src/repro layout under
    # tmp_path exercises the scoped ones.
    pkg = tmp_path / "src" / "repro" / "bitmap"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "def scan(nbits):\n"
        "    for j in range(nbits):\n"
        "        pass\n"
    )
    exit_code = lint_main([str(tmp_path), "--no-baseline"])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "EBI101" in out


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("def f(x=None):\n    return x\n")
    assert lint_main([str(tmp_path), "--no-baseline"]) == 0


def test_cli_select_and_ignore(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(BAD_MODULE)
    assert lint_main([str(target), "--select", "EBI204"]) == 1
    assert lint_main([str(target), "--ignore", "EBI204"]) == 0


def test_cli_write_baseline_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "mod.py"
    target.write_text(BAD_MODULE)
    assert lint_main(["mod.py", "--write-baseline"]) == 0
    assert (tmp_path / ".ebilint-baseline.json").exists()
    # With the baseline in place the same tree is clean...
    assert lint_main(["mod.py"]) == 0
    # ...and fixing the violation flags the baseline as stale.
    target.write_text("def record(stats=None):\n    pass\n")
    assert lint_main(["mod.py"]) == 1
    assert "stale" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "EBI101" in out and "EBI204" in out


# ----------------------------------------------------------------------
# EBI301 — shared-state discipline on worker-reachable paths
# ----------------------------------------------------------------------
def test_ebi301_flags_unguarded_write_on_worker_path():
    bad = """
        class C:
            def __init__(self):
                self.n = 0

            def work(self):  # ebi: worker-entry
                self.n += 1
    """
    found = findings_for("EBI301", bad, module="repro.shard.fake")
    assert len(found) == 1
    assert "'n'" in found[0].message
    assert found[0].line == 7  # the += line inside work()


def test_ebi301_accepts_lock_guarded_write():
    good = """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self.n = 0

            def work(self):  # ebi: worker-entry
                with self._lock:
                    self.n += 1
    """
    assert not findings_for("EBI301", good, module="repro.shard.fake")


def test_ebi301_worker_entry_via_pool_submit():
    bad = """
        from concurrent.futures import ThreadPoolExecutor

        class C:
            def __init__(self):
                self.n = 0

            def run(self):
                with ThreadPoolExecutor() as pool:
                    pool.submit(self._task)

            def _task(self):
                self.n += 1
    """
    found = findings_for("EBI301", bad, module="repro.shard.fake")
    assert len(found) == 1
    assert "_task" in found[0].message


def test_ebi301_shared_readonly_violation_any_method():
    # a shared-readonly attribute must never be written after
    # construction, worker-reachable or not
    bad = """
        class C:
            def __init__(self):
                self.table = object()  # ebi: shared-readonly

            def rebind(self, t):
                self.table = t
    """
    found = findings_for("EBI301", bad, module="repro.index.fake")
    assert len(found) == 1
    assert "shared-readonly" in found[0].message


def test_ebi301_init_helpers_are_construction():
    good = """
        class C:
            def __init__(self):
                self.table = object()  # ebi: shared-readonly
                self._init_rest()

            def _init_rest(self):
                self.table = object()

            def work(self):  # ebi: worker-entry
                return self.table
    """
    assert not findings_for("EBI301", good, module="repro.index.fake")


def test_ebi301_thread_local_state_is_exempt():
    good = """
        class C:
            def __init__(self):
                self.scratch = []  # ebi: thread-local

            def work(self):  # ebi: worker-entry
                self.scratch = []
    """
    assert not findings_for("EBI301", good, module="repro.shard.fake")


def test_ebi301_worker_constructed_instances_are_private():
    good = """
        class Scratch:
            def __init__(self):
                self.items = []

            def add(self, x):
                self.items.append(x)

        class C:
            def work(self):  # ebi: worker-entry
                s = Scratch()
                s.add(1)
    """
    assert not findings_for("EBI301", good, module="repro.shard.fake")


def test_ebi301_inline_disable():
    source = """
        class C:
            def __init__(self):
                self.n = 0

            def work(self):  # ebi: worker-entry
                self.n += 1  # ebilint: disable=EBI301
    """
    assert not findings_for("EBI301", source, module="repro.shard.fake")


# ----------------------------------------------------------------------
# EBI302 — invalidation protocol around _data_version
# ----------------------------------------------------------------------
def test_ebi302_flags_missing_bump_on_early_return():
    bad = """
        class C:
            def __init__(self):
                self._data_version = 0
                self._rows = []  # ebi: versioned

            def add(self, x):
                self._rows.append(x)
                if x < 0:
                    return
                self._data_version += 1
    """
    found = findings_for("EBI302", bad, module="repro.index.fake")
    assert len(found) == 1
    assert found[0].line == 10  # the dirty early return


def test_ebi302_flags_missing_bump_at_fall_off_end():
    bad = """
        class C:
            def __init__(self):
                self._data_version = 0
                self._rows = []  # ebi: versioned

            def add(self, x):
                self._rows.append(x)
    """
    found = findings_for("EBI302", bad, module="repro.index.fake")
    assert len(found) == 1


def test_ebi302_try_finally_bump_covers_exception_paths():
    good = """
        class C:
            def __init__(self):
                self._data_version = 0
                self._rows = []  # ebi: versioned

            def add(self, x):
                try:
                    self._rows.append(x)
                    if x < 0:
                        raise ValueError(x)
                finally:
                    self._data_version += 1
    """
    assert not findings_for("EBI302", good, module="repro.index.fake")


def test_ebi302_flags_foreign_version_write():
    bad = """
        class Helper:
            def poke(self, index):
                index._data_version += 1
    """
    found = findings_for("EBI302", bad, module="repro.encoding.fake")
    assert len(found) == 1
    assert "another object" in found[0].message


def test_ebi302_flags_unlocked_version_read_in_locked_class():
    bad = """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self._data_version = 0

            def snapshot(self):
                return self._data_version
    """
    found = findings_for("EBI302", bad, module="repro.index.fake")
    assert len(found) == 1
    assert "lock" in found[0].message.lower()


def test_ebi302_locked_version_read_is_clean():
    good = """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self._data_version = 0

            def snapshot(self):
                with self._lock:
                    return self._data_version
    """
    assert not findings_for("EBI302", good, module="repro.index.fake")


# ----------------------------------------------------------------------
# EBI303 — lock hygiene
# ----------------------------------------------------------------------
def test_ebi303_flags_nonreentrant_reacquire():
    bad = """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.Lock()

            def f(self):
                with self._lock:
                    with self._lock:
                        pass
    """
    found = findings_for("EBI303", bad, module="repro.cache.fake")
    assert len(found) == 1
    assert "re-acquisition" in found[0].message


def test_ebi303_rlock_reacquire_is_clean():
    good = """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.RLock()

            def f(self):
                with self._lock:
                    with self._lock:
                        pass
    """
    assert not findings_for("EBI303", good, module="repro.cache.fake")


def test_ebi303_flags_metrics_callback_under_lock():
    bad = """
        import threading
        from repro.obs.metrics import get_registry

        class C:
            def __init__(self):
                self._lock = threading.Lock()

            def f(self):
                with self._lock:
                    get_registry().counter("x").inc()
    """
    found = findings_for("EBI303", bad, module="repro.cache.fake")
    assert any("metrics" in f.message for f in found)


def test_ebi303_flags_blocking_sleep_under_lock():
    bad = """
        import threading
        import time

        class C:
            def __init__(self):
                self._lock = threading.Lock()

            def f(self):
                with self._lock:
                    time.sleep(0.1)
    """
    found = findings_for("EBI303", bad, module="repro.cache.fake")
    assert len(found) >= 1


def test_ebi303_flags_lock_order_cycle():
    bad = """
        import threading

        class A:
            def __init__(self, other):
                self._lock = threading.Lock()
                self.other: B = other

            def outer_ab(self):
                with self._lock:
                    self.other.inner_b()

            def inner_a(self):
                with self._lock:
                    pass

        class B:
            def __init__(self, other):
                self._lock = threading.Lock()
                self.other: A = other

            def inner_b(self):
                with self._lock:
                    pass

            def outer_ba(self):
                with self._lock:
                    self.other.inner_a()
    """
    found = findings_for("EBI303", bad, module="repro.shard.fake")
    assert any("cycle" in f.message for f in found)


def test_ebi303_consistent_lock_order_is_clean():
    good = """
        import threading

        class A:
            def __init__(self, other):
                self._lock = threading.Lock()
                self.other: B = other

            def outer_ab(self):
                with self._lock:
                    self.other.inner_b()

        class B:
            def __init__(self):
                self._lock = threading.Lock()

            def inner_b(self):
                with self._lock:
                    pass
    """
    assert not findings_for("EBI303", good, module="repro.shard.fake")


# ----------------------------------------------------------------------
# EBI304 — accounting soundness in evaluator/kernel code
# ----------------------------------------------------------------------
def test_ebi304_flags_uncounted_plane_access():
    bad = """
        class K:
            def eval_block(self, matrix):
                return matrix[0]
    """
    found = findings_for("EBI304", bad, module="repro.kernels.fake")
    assert len(found) == 1
    assert "counted" in found[0].message


def test_ebi304_counter_parameter_is_compliant():
    good = """
        class K:
            def eval_block(self, matrix, counter):
                counter.record(0)
                return matrix[0]
    """
    assert not findings_for("EBI304", good, module="repro.kernels.fake")


def test_ebi304_counted_caller_covers_helper():
    good = """
        class K:
            def evaluate(self, matrix, counter):
                counter.record_accesses([0])
                return self._eval_inner(matrix)

            def _eval_inner(self, matrix):
                return matrix[0]
    """
    assert not findings_for("EBI304", good, module="repro.kernels.fake")


def test_ebi304_out_of_scope_module_ignored():
    source = """
        class K:
            def eval_block(self, matrix):
                return matrix[0]
    """
    assert not findings_for("EBI304", source, module="repro.table.fake")


def test_ebi304_flags_raw_vector_call_in_query_layer():
    bad = """
        def pick(index):
            return index.vector(0)
    """
    found = findings_for("EBI304", bad, module="repro.query.fake")
    assert len(found) == 1


# ----------------------------------------------------------------------
# --explain mode
# ----------------------------------------------------------------------
def test_cli_explain_concurrency_rule(capsys):
    assert lint_main(["--explain", "EBI301"]) == 0
    out = capsys.readouterr().out
    assert "EBI301" in out
    assert "shared" in out.lower()


def test_cli_explain_multiple_rules(capsys):
    assert lint_main(["--explain", "EBI302", "EBI303"]) == 0
    out = capsys.readouterr().out
    assert "EBI302" in out and "EBI303" in out


def test_cli_explain_unknown_rule_errors():
    with pytest.raises(SystemExit):
        lint_main(["--explain", "EBI999"])


# ----------------------------------------------------------------------
# EBI401 — durable-write protocol
# ----------------------------------------------------------------------
def test_ebi401_flags_inplace_overwrite_of_final_file():
    bad = """
        def save(path, data):
            with open(path, "w") as handle:
                handle.write(data)
    """
    found = findings_for("EBI401", bad, module="repro.database")
    assert len(found) == 1
    assert "os.replace" in found[0].message


def test_ebi401_flags_mode_keyword_and_binary_modes():
    bad = """
        def save(path, blob):
            with open(path, mode="wb") as handle:
                handle.write(blob)
    """
    found = findings_for("EBI401", bad, module="repro.storage.wal")
    assert len(found) == 1


def test_ebi401_accepts_tmp_fsync_rename_protocol():
    good = """
        import os

        def save(path, data):
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
    """
    assert findings_for("EBI401", good, module="repro.database") == []


def test_ebi401_accepts_append_mode_and_reads():
    good = """
        def log(path, frame):
            with open(path, "ab") as handle:
                handle.write(frame)

        def read(path):
            with open(path, "rb") as handle:
                return handle.read()
    """
    assert findings_for("EBI401", good, module="repro.storage.wal") == []


def test_ebi401_scope_is_durability_critical_modules_only():
    bad = """
        def dump(path, data):
            with open(path, "w") as handle:
                handle.write(data)
    """
    assert findings_for("EBI401", bad, module="repro.bench.report") == []
