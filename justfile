# Project task runner. Install `just`, or read the recipes and run the
# commands directly — each one is a plain cargo invocation.

# Build the whole workspace in release mode.
build:
    cargo build --workspace --release

# Run every test in the workspace.
test:
    cargo test --workspace

# Lint: clippy with warnings denied, formatting check, and rustdoc with
# warnings denied (broken intra-doc links, links to private items).
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --check
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Time one scheduling decision per scalability point and append the
# result to the committed trajectory file (compare entries across PRs).
bench-sched:
    cargo run --release -p optimus-bench --bin bench_sched -- --out BENCH_sched.json

# Time one interval's convergence refits (reference vs batched) per
# grid point and append the result to the committed trajectory file.
bench-fit:
    cargo run --release -p optimus-bench --bin bench_fit -- --out BENCH_fit.json

# Allocator smoke: one steady-state bench sample per scalability point,
# cross-checked against the naive reference scheduler (non-zero exit on
# any divergent allocation or placement), plus the zero-allocation
# proof for warm full rounds (`schedule_into`) and for every kind of
# warm delta round the simulator runs (`schedule_delta`), for a refit of
# a fitted speed model, and for warm batched refits of one to eight
# jobs (`fit_batch`).
bench-alloc:
    cargo run --release -p optimus-bench --bin bench_sched -- --samples 1 --verify
    cargo test --release -p optimus-core --test zero_alloc
    cargo test --release -p optimus-fitting --test zero_alloc

# Prove the optimized paths byte-identical to their naive oracles
# (property-based where inputs vary): the allocator/placer against the
# reference scheduler, the speed-model refit against
# `NonNegLinearFit::fit_rows`, the incremental loss preprocessing against the
# full pass, the batched SoA fit engine (the only production fitter)
# against `LossCurveFitter::fit`, and the simulator's production path
# (`Simulation::run`) against the tick-loop oracle
# (`Simulation::run_reference`) and the full-rounds scheduler — one
# simulator-suite run covers every scheduler, refit thread count and
# edge case — plus the event-calendar determinism proptests and the
# closed-form chunk-move count against `ChunkAssignment::rebalance`.
# The batched fitter's unit tests also run here in release, where both
# compilations of its wave body (portable, and avx512f on hosts that
# have it) are vectorized: they check the two against each other wave
# by wave and over whole `fit_batch` calls, which `just test`'s debug
# build cannot. They also check the Gram-form dual certificate against
# real dual sweeps on random and adversarial lanes
# (`certified_duals_decide_as_the_sweep`) and whole `fit_batch` calls
# with certificates on and off. Beside them run the NNLS unit tests:
# both production fitters drive one active-set step (`ActiveSet`) and
# differ only in their subproblem solve, and
# `two_column_solve_matches_the_general_solve` pins the batched
# fitter's two-column solve to the speed refit's general one, bit for
# bit, on random and degenerate Grams. Last, the JSON writers: every derive
# shape and value edge case of `Serialize::write_json` against the
# `Value`-tree renderer it replaced, the streaming trace export against
# the trace snapshot, and every record of every ledger artifact of a
# run with stragglers, rebalances and a server failure
# (`streamed_artifacts_match_their_value_trees`).
equivalence:
    cargo test --release -p optimus-core --test equivalence
    cargo test --release -p optimus-ps --test chunk_rebalance
    cargo test --release -p optimus-fitting --test equivalence
    cargo test --release -p optimus-fitting --test batch_equivalence
    cargo test --release -p optimus-fitting --lib batch::
    cargo test --release -p optimus-fitting --lib nnls::
    cargo test --release -p optimus-simulator --test equivalence
    cargo test --release -p optimus-simulator --test event_determinism
    cargo test --release -p serde --test write_json
    cargo test --release -p optimus-telemetry --lib trace::
    cargo test --release --test ledger_diff streamed_artifacts_match_their_value_trees

# Ledger smoke: two identical small runs must produce byte-identical
# artifacts — `optimus-trace diff` exits non-zero if they diverge — and
# must match the committed ledger in `results/ledger-smoke`, so a change
# that moves any artifact has to regenerate those files (rerun the
# first command with `--ledger results/ledger-smoke`) and shows it in
# its diff. The cross-oracle ledger contracts (the tick-loop oracle
# hashes like the production run on every artifact but `trace.jsonl`,
# DESIGN §11; the full-rounds scheduler on every decision artifact,
# DESIGN §13) run in-process in `tests/ledger_diff.rs`.
ledger:
    rm -rf target/ledger-smoke
    cargo run --release --bin optimus-sim -- run --jobs 3 --seed 11 --interval 300 --ledger target/ledger-smoke/a
    cargo run --release --bin optimus-sim -- run --jobs 3 --seed 11 --interval 300 --ledger target/ledger-smoke/b
    cargo run --release --bin optimus-trace -- diff target/ledger-smoke/a target/ledger-smoke/b
    cargo run --release --bin optimus-trace -- diff results/ledger-smoke target/ledger-smoke/a

# Whole-simulation throughput: simulated-seconds per wall-second and
# events per wall-second across the job grid, with a bit-identical
# per-job JCT cross-check between samples (a nondeterministic engine
# cannot record timings). Appends to the committed trajectory file.
bench-sim:
    cargo run --release -p optimus-bench --bin bench_sim -- --out BENCH_sim.json

# End-to-end benchmark smoke: a tenth of each BENCHMARK.json workload
# with every correctness gate on (determinism witness, unfinished jobs,
# the sparse-quarter makespan, the churn cross-checks, span
# attribution), plus the benchmark's unit tests. The benchmark is a
# package of its own, so it builds by manifest path.
e2e-smoke:
    cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --smoke
    cargo test --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

# Flight-recorder smoke: write a small ledgered run and render it as a
# per-job Gantt chart plus utilization/fragmentation/queue timelines.
timeline:
    rm -rf target/timeline-demo
    cargo run --release --bin optimus-sim -- run --jobs 4 --seed 11 --interval 300 --ledger target/timeline-demo
    cargo run --release --bin optimus-trace -- timeline target/timeline-demo

# Decision-provenance smoke: record a small ledgered run and explain
# one job's decisions from its provenance.jsonl — the round-by-round
# history, one full round story, and the run-wide summary. Exercises
# the whole why-record pipeline (record → ledger artifact → explainer).
why:
    rm -rf target/why-demo
    cargo run --release --bin optimus-sim -- run --jobs 4 --seed 11 --interval 300 --ledger target/why-demo
    cargo run --release --bin optimus-trace -- why 1 target/why-demo
    cargo run --release --bin optimus-trace -- why 1 target/why-demo --round 3
    cargo run --release --bin optimus-trace -- why target/why-demo --summary

# Fig-12 determinism gate: rerun the scalability experiment and fail on
# any stdout difference from the committed table. Stdout holds only the
# jobs/nodes/tasks columns (the host-dependent wall times go to
# stderr), so this pins the synthetic Fig-12 population and the
# scheduler's task counts at all nine points.
paper-fig12:
    mkdir -p target
    cargo run --release -p optimus-bench --bin fig12_scalability > target/fig12_scalability.txt
    diff -u results/fig12_scalability.txt target/fig12_scalability.txt

# Regression judge: in each BENCH_*.json, compare the newest entry with
# the latest earlier entry from the same host (the end-to-end
# benchmark's median/quartile verdict, 10 % bound); fail when a point
# is worse or nothing could be compared.
check-bench:
    cargo run --release --bin optimus-trace -- check-bench

# Everything CI would run: lint + build + tests (which include the
# in-process cross-oracle ledger diffs), the optimized-vs-oracle
# equivalence suites, 1-sample bench smoke runs (keeps the timing
# harnesses compiling and executable without recording noise;
# bench-alloc also cross-checks decisions against the reference across
# the standard points *and* the steady-state churn points, where
# --verify additionally fails on any delta-path fallback to a full
# re-derivation; bench_fit smokes the at-scale 5000-job grid point,
# which includes its own reference-vs-batched cross-check;
# bench_sim smokes the at-scale 100-job grid point, which checks its
# JCT witness against the tick-loop oracle), the run-ledger determinism
# smoke, the flight-recorder timeline smoke, the decision-provenance
# why smoke, the end-to-end benchmark smoke, the Fig-12 results diff,
# and the bench regression judge.
ci: lint build test equivalence bench-alloc ledger timeline why e2e-smoke paper-fig12 check-bench
    cargo run --release -p optimus-bench --bin bench_fit -- --samples 1 --points 5000
    cargo run --release -p optimus-bench --bin bench_sim -- --samples 1 --points 100
