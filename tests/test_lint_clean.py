"""The CI gate as a test: the committed tree must lint clean.

ebilint always runs (it ships with the repo); ruff and mypy are part
of the ``lint`` optional-dependency group and are skipped when not
installed, so the core suite stays runnable from ``dependencies``
alone.  CI installs the group and runs all three.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import all_rules, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
TESTS = REPO_ROOT / "tests"


def test_ebilint_clean_on_committed_tree():
    baseline = REPO_ROOT / ".ebilint-baseline.json"
    report = lint_paths(
        [SRC, TESTS],
        baseline_path=baseline if baseline.exists() else None,
    )
    assert report.files_checked > 0
    details = "\n".join(f.render() for f in report.findings)
    assert report.exit_code == 0, (
        f"ebilint found new violations:\n{details}\n"
        f"stale baseline entries: {report.stale_baseline}"
    )


def test_every_shipped_rule_fails_a_violating_fixture():
    """Guard against rules that silently stop matching anything.

    Each rule must produce at least one finding on its own minimal
    violating fixture (within a module in the rule's scope), so a
    clean run on src/ means the tree is clean — not that the rules
    went blind.
    """
    fixtures = {
        "EBI101": (
            "def scan(nbits):\n    for j in range(nbits):\n        pass\n",
            "repro.bitmap.fake",
        ),
        "EBI102": (
            "def run(terms, nbits):\n"
            "    for t in terms:\n"
            "        v = BitVector.zeros(nbits)\n",
            "repro.boolean.evaluator",
        ),
        "EBI103": (
            "def run(f, s, n):\n    return evaluate_dnf(f, s, n)\n",
            "repro.query.fake",
        ),
        "EBI104": (
            "def pop(x):\n    return bin(x).count(\"1\")\n",
            "repro.encoding.fake",
        ),
        "EBI105": (
            "def scan(vector):\n"
            "    for bit in vector:\n"
            "        pass\n",
            "repro.aggregate.fake",
        ),
        "EBI106": (
            "def scan(runs):\n"
            "    for i in range(4):\n"
            "        v = runs.to_bitvector()\n",
            "repro.kernels.fake",
        ),
        "EBI108": (
            "def scan(mapped_planes, queries):\n"
            "    for q in queries:\n"
            "        use(mapped_planes.materialize(), q)\n",
            "repro.kernels.fake",
        ),
        "EBI201": (
            "def build(t):\n    t.assign(\"red\", 0)\n",
            "repro.encoding.fake",
        ),
        "EBI202": (
            "def enc(v) -> MappingTable:\n"
            "    return MappingTable.from_values(v)\n",
            "repro.encoding.fake",
        ),
        "EBI203": (
            "def plan():\n    return And((Var(0), Var(1)))\n",
            "repro.query.fake",
        ),
        "EBI204": (
            "def f(seen=[]):\n    pass\n",
            "repro.query.fake",
        ),
        "EBI205": (
            "def f(x):\n"
            "    raise ValueError(\"bad argument\")\n",
            "repro.storage.fake",
        ),
        "EBI301": (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def work(self):  # ebi: worker-entry\n"
            "        self.n += 1\n",
            "repro.shard.fake",
        ),
        "EBI302": (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._data_version = 0\n"
            "        self._rows = []  # ebi: versioned\n"
            "    def add(self, x):\n"
            "        self._rows.append(x)\n",
            "repro.index.fake",
        ),
        "EBI303": (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            with self._lock:\n"
            "                pass\n",
            "repro.cache.fake",
        ),
        "EBI304": (
            "class K:\n"
            "    def eval_block(self, matrix):\n"
            "        return matrix[0]\n",
            "repro.kernels.fake",
        ),
        "EBI401": (
            "def save(path, data):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(data)\n",
            "repro.database",
        ),
    }
    missing_fixture = [
        rule.id for rule in all_rules() if rule.id not in fixtures
    ]
    assert not missing_fixture, (
        f"rules without a violation fixture: {missing_fixture}"
    )
    for rule_id, (source, module) in fixtures.items():
        findings = lint_source(source, path="<fixture>", module=module)
        assert any(f.rule == rule_id for f in findings), (
            f"{rule_id} no longer fires on its violating fixture"
        )


def _run(cmd):
    return subprocess.run(
        cmd, cwd=REPO_ROOT, capture_output=True, text=True
    )


def test_ruff_clean():
    if shutil.which("ruff") is None:
        pytest.skip("ruff not installed (pip install -e .[lint])")
    proc = _run(["ruff", "check", "src", "tests"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mypy_clean():
    try:
        import mypy  # noqa: F401
    except ImportError:
        pytest.skip("mypy not installed (pip install -e .[lint])")
    proc = _run([sys.executable, "-m", "mypy", "src/repro"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
