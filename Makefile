.PHONY: all build verify lint-check bench bench-smoke serve-smoke fuzz-smoke fix-verify sched-smoke doc clean

all: build

build:
	dune build

# Tier-1 gate: full build + the whole alcotest/qcheck suite, then the
# lint self-check and the four smoke gates, each run once.
verify:
	dune build
	dune runtest
	$(MAKE) lint-check
	$(MAKE) serve-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) fix-verify
	$(MAKE) sched-smoke

# Lint self-check: clean kernels must pass, the racy fixture must fail,
# the parametric fixture must lint without -p and trip the FS gate.
# The adversarial exact-tier fixtures must get definite verdicts: their
# certified races gate the exit code, and even under --exact on no
# analysis/unknown or analysis/exact-budget finding may remain.  Then
# the version stamp and the analytic cost model's lint and JSON output.
# Last, every fixture must lint without -p bindings, apart from the
# bad_* inputs that must be rejected (test/cli_runner.ml pins those).
lint-check: build
	./_build/default/bin/fsdetect.exe lint --no-fixits -k saxpy > /dev/null
	./_build/default/bin/fsdetect.exe lint --no-fixits -k linear_regression > /dev/null
	! ./_build/default/bin/fsdetect.exe lint --no-fixits test/fixtures/racy_stencil.c > /dev/null
	./_build/default/bin/fsdetect.exe lint --no-fixits test/fixtures/parametric_stride.c > /dev/null
	! ./_build/default/bin/fsdetect.exe lint --no-fixits --fail-on fs test/fixtures/parametric_stride.c > /dev/null
	./_build/default/bin/fsdetect.exe lint --no-fixits --fail-on never test/fixtures/racy_stencil.c > /dev/null
	! ./_build/default/bin/fsdetect.exe lint --no-fixits test/fixtures/coupled_subscript.c > /dev/null 2>&1
	! ./_build/default/bin/fsdetect.exe lint --no-fixits test/fixtures/divided_bound.c > /dev/null 2>&1
	! ./_build/default/bin/fsdetect.exe lint --no-fixits --fail-on never --exact on test/fixtures/coupled_subscript.c 2>&1 | grep 'analysis/'
	! ./_build/default/bin/fsdetect.exe lint --no-fixits --fail-on never --exact on test/fixtures/divided_bound.c 2>&1 | grep 'analysis/'
	./_build/default/bin/fsdetect.exe --version | grep -q '+arch\.'
	./_build/default/bin/fsdetect.exe lint --fail-on never --cost-model analytic -k heat | grep -q 'cost: Total_c'
	./_build/default/bin/fsdetect.exe analyze --cost-model analytic --format json -k heat | grep -q '"costModel": "analytic"'
	for f in test/fixtures/*.c; do \
	  case "$$f" in */bad_*) continue ;; esac; \
	  ./_build/default/bin/fsdetect.exe lint --no-fixits --fail-on never "$$f" > /dev/null || exit 1; \
	done

# End-to-end smoke of the analysis service: one `fsdetect serve`
# process gets the same mixed batch (lint + explain over every registry
# kernel) twice; the warm pass must return byte-identical responses and
# be at least 5x faster than the cold one, or the runner exits nonzero.
serve-smoke: build
	./_build/default/test/serve_runner.exe --smoke \
	  ./_build/default/bin/fsdetect.exe

# Sixty seconds of seeded differential fuzzing: replay the committed
# corpus, then push freshly generated nests through the oracle matrix
# until the budget runs out.  Deterministic per seed, so a CI failure
# reproduces locally with the seed/case printed in the counterexample.
fuzz-smoke: build
	./_build/default/bin/fsdetect.exe fuzz --seed 42 --count 1000000 \
	  --time-budget 60 --corpus test/corpus --out fuzz-failures

# The verified-fix gate: every registry and micro-pattern kernel with
# attributed false sharing must get a materialized transformed program
# that removes >= 90% of it with no analytic cost regression and a
# simulator-confirmed drop in false invalidation misses; clean kernels
# must report an explicitly empty plan.  Then a short seeded mining run:
# generated nests whose materialized fix underdelivers are promoted into
# test/corpus as content-addressed fix-<digest>.c regression seeds.
fix-verify: build
	./_build/default/test/fix_verify.exe
	./_build/default/bin/fsdetect.exe fuzz --seed 7 --count 400 \
	  --promote test/corpus --out fuzz-failures

# The seeded-schedule tier at the CLI: a distributional lint over K=8
# seeds on each engine-facing schedule kind.  Its statistical laws
# (replay determinism, per-seed cross-engine equality, static
# equivalence, the 32-seed steal bound) are test/test_sched.ml, which
# `dune runtest` runs.
sched-smoke: build
	./_build/default/bin/fsdetect.exe lint --no-fixits --fail-on never \
	  -k heat --schedule dynamic --seeds 8 | grep -q 'fs-dist: mean'
	./_build/default/bin/fsdetect.exe lint --no-fixits --fail-on never \
	  -k heat --schedule ws,2 --seeds 8 | grep -q 'steal(s)/seed'

# API reference via odoc.  The root `dune` file promotes every odoc
# comment problem (broken {!reference}, bad markup, missing @param) to
# a build error, so doc rot fails this target — and the docs CI job
# that runs it.  All libraries here are private, hence @doc-private.
# Skips with a notice when odoc is not installed so `make doc` stays
# runnable in minimal toolchain containers.
doc:
	@if command -v odoc > /dev/null 2>&1 || \
	  [ -x "$$(opam var bin 2>/dev/null)/odoc" ]; then \
	  dune build @doc-private && \
	  echo "API docs: _build/default/_doc/_html/index.html"; \
	else \
	  echo "make doc: odoc not installed, skipping (CI enforces this)"; \
	fi

# Full-size artifact generator: every paper table/figure and extension.
bench: build
	./_build/default/bench/main.exe

# Quick artifact run (small instances) at --jobs 1 and again at --jobs 2,
# with one wall-clock line for both.  Par_sweep keys results by input
# index, so the two BENCH.json records must agree apart from their
# wall-clock fields (tools/bench_same.py).  Leaves the --jobs 2 record
# in BENCH.json.
bench-smoke: build
	@start=$$(date +%s.%N); \
	jobs1=$$(mktemp); \
	./_build/default/bench/main.exe --quick --jobs 1 && \
	cp BENCH.json "$$jobs1" && \
	./_build/default/bench/main.exe --quick --jobs 2 > /dev/null && \
	python3 tools/bench_same.py "$$jobs1" BENCH.json; \
	status=$$?; rm -f "$$jobs1"; \
	end=$$(date +%s.%N); \
	awk -v s="$$start" -v e="$$end" \
	  'BEGIN { printf "bench-smoke wall-clock: %.2fs\n", e - s }'; \
	exit $$status

clean:
	dune clean
