# Convenience targets for the reproduction workspace.

.PHONY: install test doctest bench bench-json parallel-bench kernel-bench compression-bench serving-bench scale-bench tables validate examples lint typecheck race-check crash-check all

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

lint:
	PYTHONPATH=src python -m repro.lint src tests
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks examples; \
	else echo "ruff not installed (pip install -e .[lint]); skipped"; fi

typecheck:
	@if python -c "import mypy" 2>/dev/null; then python -m mypy src/repro; \
	else echo "mypy not installed (pip install -e .[lint]); skipped"; fi

# EBI3xx at a zero baseline plus the seeded-interleaving stress suite
# (docs/concurrency.md).
race-check:
	PYTHONPATH=src python -m repro.lint src tests \
		--select EBI301 EBI302 EBI303 EBI304 --no-baseline
	PYTHONPATH=src python -m pytest -q tests/test_concurrency.py

# Durability discipline at a zero baseline plus the deterministic
# crash matrix, the WAL/fault suites and the delta-tier guarantees
# (docs/robustness.md "Durability & recovery").
crash-check:
	PYTHONPATH=src python -m repro.lint src tests \
		--select EBI401 --no-baseline
	PYTHONPATH=src python -m pytest -q tests/test_crash_matrix.py \
		tests/test_wal.py tests/test_delta.py tests/test_faults.py

doctest:
	PYTHONPATH=src python -m pytest --doctest-modules \
		src/repro/query src/repro/storage src/repro/obs \
		src/repro/bench src/repro/shard src/repro/serving \
		src/repro/kernels src/repro/cache.py src/repro/database.py

bench:
	pytest benchmarks/ --benchmark-only

bench-json:
	PYTHONPATH=src python -m repro.cli bench --quick
	PYTHONPATH=src python -m repro.cli bench

parallel-bench:
	PYTHONPATH=src python -m repro.cli bench --quick --workers 1,4

kernel-bench:
	PYTHONPATH=src python -m repro.cli bench --case kernel_eval \
		--suite kernel --workers 1,4

compression-bench:
	PYTHONPATH=src python -m repro.cli bench --case compression \
		--suite compression

# Query-serving tier: result-cache bit-identity and throughput lines
# plus the served zipf multi-tenant workload (docs/serving.md).
serving-bench:
	PYTHONPATH=src python -m repro.cli bench --case serving \
		--suite serving

# Out-of-core streaming: mapped planes under a 25% plane-byte budget
# against the fully-resident reference, page reads vs the Section 3
# model envelope (docs/out_of_core.md).
scale-bench:
	PYTHONPATH=src python -m repro.cli bench --case scale \
		--suite scale

tables:
	pytest benchmarks/ -s --benchmark-disable

validate:
	python -m repro.cli validate

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

all: lint typecheck race-check crash-check test doctest bench validate
