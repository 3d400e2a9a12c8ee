#!/bin/sh
# Repository verify path: tier-1 build + tests, then a bench-smoke run
# that exercises the device-measured experiments in quick mode, writes
# structured metrics JSON, and gates on the metrics schema so metric
# regressions (dropped keys, empty experiment lists) fail fast.
set -eu
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== static (go vet + race detector + fuzz corpus)"
go vet ./...
go test -race ./...

echo "== neurolint (repo-local determinism/artifact-stability gate)"
go run ./cmd/neurolint

echo "== staticcheck (pinned; skipped loudly when the module proxy is unreachable)"
# The container this script often runs in has no network and an empty
# module cache; CI always has both, so the pinned tools are a hard gate
# there and an announced skip here.
TOOLBIN="$(mktemp -d)"
trap 'rm -rf "$TOOLBIN"' EXIT
if GOBIN="$TOOLBIN" go install honnef.co/go/tools/cmd/staticcheck@v0.6.1 >/dev/null 2>&1; then
	"$TOOLBIN/staticcheck" ./...
else
	echo "   SKIPPED: cannot fetch staticcheck@v0.6.1 (offline?); CI runs it unconditionally"
fi

echo "== govulncheck (pinned; skipped loudly when the module proxy is unreachable)"
if GOBIN="$TOOLBIN" go install golang.org/x/vuln/cmd/govulncheck@v1.1.4 >/dev/null 2>&1; then
	"$TOOLBIN/govulncheck" ./...
else
	echo "   SKIPPED: cannot fetch govulncheck@v1.1.4 (offline?); CI runs it unconditionally"
fi

echo "== go test"
go test ./...

echo "== asmcheck (static verification of all generated kernels)"
go run ./cmd/asmcheck -kernels

echo "== certificates (every kernel variant exports a neuroc-cert/v1 artifact)"
go run ./cmd/asmcheck -kernels -cert > /dev/null

echo "== checked execution (certificates validated at retire time, both interpreters)"
go test -run 'TestVariantCertExactness|TestModelChecked' -count=1 ./internal/cert/

echo "== predecode parity (the fast path bit-identical to the legacy interpreter)"
# Every kernel variant at ws 0-2 in lockstep and as whole runs,
# telemetry harnesses, budget cuts, SysTick preemption, traced runs,
# device/farm tier selection, and the fuzz corpus replayed.
go test -run 'TestPredecode|TestTranslateParity|TestTier|FuzzPredecodeParity' -count=1 \
	./internal/armv6m/ ./internal/device/ ./internal/farm/

echo "== optimizer parity (unrolled kernels: fuzz seeds + dense pins)"
# The peephole-optimized unrolled kernels against their unoptimized
# form: bit-for-bit accumulator equality, optimized <= unoptimized
# cycles, exact cycle parity across both execution tiers at ws 0-2, and strict certification of both forms. `-run` replays the
# checked-in fuzz seed corpus deterministically; `go test -fuzz
# FuzzOptimizerParity ./internal/kernels/` explores further locally.
go test -run 'FuzzOptimizerParity|TestOptimizerParityDense' -count=1 ./internal/kernels/

echo "== encoding-search smoke (-encoding auto end to end)"
# The farm experiment deployed with the per-layer encoding search:
# exercises the flag through neuroc-bench -> Config -> Deploy(auto) ->
# the cert-WCET search -> farm, and panics inside the run on any
# prediction divergence from the host reference. No metrics file: the
# encoding keys would differ from the block-encoded baseline by
# construction.
go run ./cmd/neuroc-bench -exp farm -quick -j 4 -encoding auto > /dev/null

echo "== farm race-stress (shared-flash board farm under the race detector)"
go test -race -count=1 ./internal/farm/...

echo "== bench-regression smoke (both execution tiers still wired up)"
# One iteration of the Predecoded/Legacy benchmarks and of the
# per-encoding farm benchmarks: proves each tier is selected and runs
# (the benchmark bodies fail on any execution error). Real throughput
# comparisons need -benchtime 1s and an idle host; this is a wiring
# gate, not a perf gate.
go test -run '^$' -bench 'Inference|FarmMap' -benchtime 1x ./internal/armv6m/ ./internal/farm/

echo "== bench-smoke (quick device-measured experiments + metrics JSON)"
# table1/fig2/fig3/fig5/pareto are the training-free experiments: they
# deploy and measure on the emulated M0 in seconds, which is what the
# smoke gate needs. pareto covers the unrolled encodings and the auto
# search (its records gate the unrolled-beats-block property in the
# baseline). farm adds the board-farm parallel evaluation: full digits
# test-set accuracy on-emulator, with wall-clock and speedup recorded
# into the same neuroc-metrics/v1 file (the -j 4 run is bit-identical
# to -j 1; only wall-clock changes, and only on multi-core hosts).
# `neuroc-bench -quick -metrics bench_quick.json` (all experiments)
# produces the same file at CI-training scale.
go run ./cmd/neuroc-bench -exp table1,fig2,fig3,fig5,pareto,farm -quick -j 4 -metrics bench_quick.json -timeline timeline_quick.json > /dev/null

echo "== metricscheck"
go run ./cmd/metricscheck bench_quick.json

echo "== timeline-smoke (neuroc-timeline/v1 shape + span-tree invariants)"
# The farm experiment above also emitted the run timeline. Gate it: the
# validator checks the Chrome trace-event shape, that inference spans
# concatenate gaplessly in input order, that layer spans stay inside
# their inference, and that Σ layer cycles + overhead + other equals
# each inference's cycle count exactly.
go run ./cmd/metricscheck -timeline timeline_quick.json

echo "== metrics regression gate (deterministic keys vs committed baseline)"
# Every emulator-computed key (cycle counts, instructions, accuracy,
# footprints, per-layer telemetry cycles, and the energy keys priced
# from them) must match BENCH_BASELINE.json EXACTLY — the emulator is
# deterministic and the energy model is a fixed calibration, so any
# drift is a real behavior change. Wall-clock keys are ignored at
# tolerance 0. After an intentional cycle-model, codegen, or energy-
# calibration change, regenerate the baseline with the bench-smoke
# command above and commit it with the change.
# The verdict is captured to metricscheck_compare.txt so CI can upload
# it as an artifact even when the gate fails. Deliberately not a pipe
# into tee: under set -e that would gate on tee's exit status, not
# metricscheck's.
if go run ./cmd/metricscheck -compare BENCH_BASELINE.json bench_quick.json > metricscheck_compare.txt 2>&1; then
	cat metricscheck_compare.txt
else
	cat metricscheck_compare.txt
	exit 1
fi

echo "verify: ok"
