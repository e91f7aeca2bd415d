# Convenience targets for the G-PBFT reproduction.

PYTHON ?= python

.PHONY: install test lint loc typecheck bench-pytest agg-smoke sweep-smoke verify-smoke shard-smoke packs-smoke trace-smoke figures figures-paper charts examples clean

install:
	pip install -e ".[dev]"

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# static analysis: determinism/protocol rules (docs/static-analysis.md)
# plus the docstring gate
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src tests examples
	PYTHONPATH=src $(PYTHON) scripts/check_docstrings.py

# ROADMAP item 4, "success is a number": src/ may shrink but not grow
# unnoticed.  Lower the ceiling to what a PR lands at; raising it needs
# a reason in CHANGES.md.
LOC_CEILING = 19206
loc:
	@lines=$$(find src -name '*.py' | xargs cat | wc -l); \
	echo "src/ Python lines: $$lines (ceiling $(LOC_CEILING))"; \
	test $$lines -le $(LOC_CEILING)

# mypy --strict over the typed core (repro.codec/common/crypto/geo),
# ratcheted by typecheck-ratchet.toml; skips with a notice if mypy is absent
typecheck:
	PYTHONPATH=src $(PYTHON) scripts/run_typecheck.py

# the pytest-benchmark suite: one bench per table/figure, plus micro and
# scale points (docs/performance.md)
bench-pytest:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# one aggregated-workload point at smoke scale: two zones driven by
# AggregatedArrivals streams over a 60 s simulated horizon; every
# offered request must complete (docs/performance.md)
agg-smoke:
	PYTHONPATH=src $(PYTHON) -c "from repro.experiments.engine import PointSpec, run_point; \
	out = run_point(PointSpec.make('gpbft', 'agg', 120, zones=2, duration_s=60.0, drain_slack_s=600.0)); \
	print(out); \
	assert out['completed'] == out['offered'] > 0, out"

# 2-point parallel sweep through the engine (jobs=2) + docstring gate
# over the engine module; the same test runs in tier-1 via its marker
sweep-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_engine.py -m sweep_smoke -q
	PYTHONPATH=src $(PYTHON) scripts/check_docstrings.py

# bounded schedule exploration under full invariant monitoring: a few
# seeded fault schedules per protocol, fanned over 2 workers; exits
# non-zero (and writes a shrunk repro artifact) on any safety violation
verify-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments verify \
		--protocol pbft --n 4 --seeds 3 --submissions 3 --horizon 60 \
		--jobs 2 --out results/repro
	PYTHONPATH=src $(PYTHON) -m repro.experiments verify \
		--protocol gpbft --n 6 --seeds 2 --submissions 2 --horizon 90 \
		--out results/repro

# bounded 2-zone hierarchical exploration with the cross-shard prefix
# monitor attached: a couple of seeded multi-zone schedules (inter-zone
# submissions included) must commit cleanly (docs/hierarchy.md)
shard-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments verify \
		--protocol gpbft --n 8 --zones 2 --seeds 2 --submissions 4 \
		--horizon 60 --out results/repro

# the two cheapest adversarial scenario packs at quick scale
# (docs/scenarios.md); exits non-zero iff an expected outcome is missed
packs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments packs \
		regional_blackout flash_crowd

# instrumented capture -> chrome trace + span dump + flight dump,
# schema-validated, phase-breakdown report printed; then an agg run's
# frames, validated and rendered as a timeline (docs/observability.md)
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.obs capture --protocol gpbft \
		-n 10 --submissions 5 --seed 7 --horizon 40 --era-switch-at 8 \
		--trace trace.json --spans spans.jsonl --report \
		--dump-dir dumps --dump
	PYTHONPATH=src $(PYTHON) -m repro.obs validate trace.json
	PYTHONPATH=src $(PYTHON) -m repro.obs validate spans.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.obs report spans.jsonl
	test -s dumps/flight-000-on-demand.json
	PYTHONPATH=src $(PYTHON) -m repro.obs validate dumps/flight-000-on-demand.json
	PYTHONPATH=src $(PYTHON) -m repro.experiments agg --requests 2000 \
		--zones 4 --duration 600 --seed 7 --timeseries --window 60 \
		--frames frames-agg.jsonl --sample-rate 0.25 --flight-recorder
	test -s frames-agg.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.obs validate frames-agg.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.obs report frames-agg.jsonl

# every table and figure, quick profile, text + SVG under results/
figures:
	PYTHONPATH=src $(PYTHON) -m repro.experiments all --out results/reports --svg results/charts

# section-V scale (slow: tens of minutes)
figures-paper:
	GPBFT_BENCH_PROFILE=paper PYTHONPATH=src $(PYTHON) -m repro.experiments all \
		--profile paper --out results/reports --svg results/charts

# record + chart the paper-scale sweeps incrementally (resumable)
charts:
	PYTHONPATH=src $(PYTHON) scripts/record_paper_results.py
	PYTHONPATH=src $(PYTHON) scripts/render_paper_charts.py

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; PYTHONPATH=src $(PYTHON) $$ex || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis results/reports
	find . -name __pycache__ -type d -exec rm -rf {} +
