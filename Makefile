PYTHON ?= python
PYTHONPATH := src

.PHONY: test examples lint lint-json bench bench-smoke bench-session-smoke fuzz \
	fuzz-smoke fuzz-scoped-smoke

## tier-1 suite (unit + integration under tests/)
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## the shipped examples end to end (~2 s): each walks the whole
## pipeline and exits non-zero on a failure, which fails the target
examples:
	@for example in examples/*.py; do \
		echo "$$example"; \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) $$example > /dev/null || exit 1; \
	done

## static checks: the contract-lint framework (spine emission, CoW
## barriers, effect signatures, read scopes, reference-spec
## independence, instance-impact honesty, silent-write detection --
## see DESIGN.md 5k) always runs; ruff runs when installed
## (the sandbox image ships without it) and is mandatory when
## REPRO_REQUIRE_RUFF=1 (CI sets it, so a broken ruff install fails
## loudly there instead of skipping)
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.lint
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks tools; \
	elif [ -n "$$REPRO_REQUIRE_RUFF" ]; then \
		echo "lint: ruff required (REPRO_REQUIRE_RUFF) but not installed"; \
		exit 1; \
	else \
		echo "lint: ruff not installed; skipping style pass"; \
	fi

## contract-lint run with the machine-readable report CI archives
lint-json:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.lint --json \
		--output lint-report.json

## full benchmark sweep; reports land in benchmarks/reports/
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q

## fast scaling regression tripwire (reduced sizes, relaxed floors)
bench-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_index_scaling.py \
		benchmarks/test_bench_validation.py \
		benchmarks/test_bench_spine.py \
		benchmarks/test_bench_plan.py \
		benchmarks/test_bench_compact.py \
		benchmarks/test_bench_columnar.py \
		benchmarks/test_bench_cow.py -q

## designer-session benchmark self-tests (~20s, quick sizes): every
## entry point the --trace probes wrap must still resolve by name and
## signature, so a renamed parser or decompose function fails here
bench-session-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/session -q

## differential fuzzing soak: every invariant over catalog + generated
## schemas plus the large-schema profile (1k-10k types, deep ISA chains,
## wide hubs, O(changed) scoped sweeps), seed-sharded over one worker
## per core, shrinking any failure to a minimal pytest reproducer
fuzz:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.verify --seeds 40 --steps 200 \
		--large-seeds 4 --jobs auto

## ~70s fuzzing tripwire for CI (fixed seeds, deterministic); carries
## witness populations at a cheap cadence so reproducers include data
fuzz-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.verify --seeds 20 --steps 200 \
		--check-every 3 --with-populations

## ~10s scoped-sweep tripwire: one 1k-type large-profile run whose
## mid-run sweeps are O(changed) scoped sweeps (11 of them), so every
## scoped invariant runs on its touched-closure path, then a full sweep
fuzz-scoped-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.verify --seeds 0 --large-seeds 1 \
		--large-check-every 5
