#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc links, build, full workspace
# tests, and the analyzer's end-to-end self-test. Everything runs --offline —
# external crates are satisfied by the workspace-local shims.
set -euo pipefail
cd "$(dirname "$0")"

# perfbench/ is frozen with the benchmark, lock file included, and
# cargo rewrites a stale lock on its first call: restore it on exit so
# every stage leaves the tree clean.
cp perfbench/Cargo.lock /tmp/oppic_ci_perfbench_lock
trap 'mv /tmp/oppic_ci_perfbench_lock perfbench/Cargo.lock' EXIT

echo "== cargo fmt --check"
cargo fmt --check

echo "== public items have callers"
# A pub fn/struct/enum/const/static/type/trait of a crate or shim that
# no other line names (its own unit tests aside) is dead API: delete it.
python3 scripts/check_pub_callers.py

echo "== cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings: no broken or ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== crate graph (the N-rank run loops live in the library)"
# oppic-bench holds the figure binaries: nothing but them may need it.
# The run loops in oppic-resilience are generic over oppic_mpi::RankApp,
# so that crate must reach neither app. Dev-dependencies (the loops'
# own tests step both apps) are not followed.
while read -r from to; do
    deps=$(cargo tree --offline --locked -e normal -p "$from" --prefix none)
    if grep -q "^$to v" <<<"$deps"; then
        echo "$from depends on $to" >&2
        exit 1
    fi
done <<'PAIRS'
oppic-conformance oppic-bench
op-pic oppic-bench
oppic-resilience oppic-fempic
oppic-resilience oppic-cabana
PAIRS

echo "== cargo check perfbench (the benchmark compiles against the workspace)"
# perfbench is its own package, outside the workspace, so the build and
# tests above never compile it: a deleted or renamed public name it
# uses would otherwise first fail when the benchmark runs.
cargo check --offline --manifest-path perfbench/Cargo.toml --tests

echo "== perfbench fidelity (benchmark loops bit-identical to step() and the 2-rank run)"
# The only oracle that ties the benchmark's traced loops to the apps'
# step() and its 2-rank loop to run_fempic_distributed; the filters
# select the three bit-identity tests by name.
cargo test --release --offline --manifest-path perfbench/Cargo.toml --test fidelity --quiet -- \
    traced_loop_matches_step two_rank_loop_matches_run_fempic_distributed

echo "== cargo test --workspace"
cargo test --offline --workspace --quiet

echo "== oppic-analyzer --self-test"
./target/release/oppic-analyzer --self-test

echo "== fempic --validate / cabana --validate"
./target/release/fempic --validate >/dev/null
# The benchmark's fempic shape (direct-hop; the binary's default is
# multi-hop): audits the per-cell barycentric maps the move reads.
./target/release/fempic configs/fempic_small.cfg --validate >/dev/null
./target/release/cabana --validate >/dev/null
# The benchmark's cabana shape: audits its c2c27 stencil map against
# the chained c2c hops.
./target/release/cabana configs/cabana_two_stream.cfg --validate >/dev/null

echo "== --validate on sorted stores (colouring deposit / per-step sort)"
# The colouring deposit sorts before every deposit: the CSR index
# audit and the colouring audit must pass, and the shadow replay must
# find the coloured schedule race-free.
./target/release/fempic configs/fempic_coloring.cfg --validate >/dev/null
./target/release/cabana configs/cabana_sorted.cfg --validate >/dev/null

echo "== telemetry smoke (sink -> audit -> report)"
# A validated run of each app writes a JSONL event stream; the
# analyzer's offline audit and the report tool must both accept it.
./target/release/fempic --validate --telemetry /tmp/oppic_ci_telemetry.jsonl >/dev/null
./target/release/oppic-analyzer --audit-telemetry /tmp/oppic_ci_telemetry.jsonl >/dev/null
./target/release/oppic-report /tmp/oppic_ci_telemetry.jsonl >/dev/null
./target/release/cabana --validate --telemetry /tmp/oppic_ci_telemetry.jsonl >/dev/null
./target/release/oppic-analyzer --audit-telemetry /tmp/oppic_ci_telemetry.jsonl >/dev/null
./target/release/oppic-report /tmp/oppic_ci_telemetry.jsonl >/dev/null
rm -f /tmp/oppic_ci_telemetry.jsonl

echo "== roofline drift (traffic model vs results/BENCH_roofline.csv)"
# Regenerate the roofline CSV with the DESIGN.md §6 recipe into a temp
# dir. Its app, kernel, class, calls, bytes and flops columns are
# deterministic and must match the committed file, so a changed
# traffic model or loop count shows up here; the timing columns
# (seconds and the rates derived from them) are not compared. Rows
# are ordered by time, so both sides are sorted first.
roof=$(mktemp -d)
./target/release/fempic --telemetry "$roof/fempic.jsonl" >/dev/null
./target/release/cabana --telemetry "$roof/cabana.jsonl" >/dev/null
./target/release/oppic-report --artifacts "$roof" "$roof/fempic.jsonl" "$roof/cabana.jsonl" >/dev/null
model_columns() { cut -d, -f1-4,6,7 "$1" | LC_ALL=C sort; }
if ! diff <(model_columns results/BENCH_roofline.csv) <(model_columns "$roof/BENCH_roofline.csv") >&2; then
    echo "results/BENCH_roofline.csv drifted from the traffic model; regenerate it (DESIGN.md §6)" >&2
    rm -rf "$roof"
    exit 1
fi

echo "== timeline smoke (both streams + a schedule -> Chrome trace)"
# The same two streams and a fempic schedule trace, merged by
# `oppic-report --timeline`: the output must parse as JSON, and each
# run's process must hold at least one kernel span ("X" on tid 1) and
# one "step N" window, so a reader that skips every record shows here.
./target/release/fempic --record-schedule "$roof/schedule.json" >/dev/null
./target/release/oppic-report --timeline "$roof/timeline.json" --schedule "$roof/schedule.json" \
    "$roof/fempic.jsonl" "$roof/cabana.jsonl" >/dev/null
if ! python3 - "$roof/timeline.json" <<'PY'
import json, re, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
for pid in (1, 2):
    mine = [e for e in events if e.get("pid") == pid and e.get("ph") == "X"]
    spans = [e for e in mine if e.get("tid") == 1]
    steps = [e for e in mine if e.get("tid") == 0 and re.fullmatch(r"step \d+", e["name"])]
    if not spans or not steps:
        sys.exit(f"run {pid}: {len(spans)} span(s), {len(steps)} step event(s)")
PY
then
    echo "oppic-report --timeline lost the spans or steps of a run" >&2
    rm -rf "$roof"
    exit 1
fi
rm -rf "$roof"

echo "== move-visits drift (move ablation vs results/ablation_move_strategies.txt)"
# Rerun the fast-flow move ablation. Its strategy, visits/ptcl, seeded
# and overlay MB columns are deterministic for a given thread count
# (one injection seed, tallies merged in piece order; the committed
# file is recorded on a 2-core host), so a changed move rule, kernel
# or overlay shows up here; the Move and total timings are not
# compared.
move_columns() { awk '/^(multi|direct)-hop/ { $(NF-4) = ""; $NF = ""; print }' "$1"; }
moves=$(mktemp)
./target/release/ablation_move_strategies >"$moves"
if ! diff <(move_columns results/ablation_move_strategies.txt) <(move_columns "$moves") >&2; then
    echo "results/ablation_move_strategies.txt drifted from the move engine; re-record it with ablation_move_strategies" >&2
    rm -f "$moves"
    exit 1
fi
rm -f "$moves"

echo "== overlay cell-map drift (smallest overlay build vs results/BENCH_overlay_build.json)"
# Build the benchmark's 32³ overlay once and compare its cell_map
# digest with the committed record: a changed overlay build or tie
# rule shows up here. Only the digest is compared, never a time.
./target/release/bench_overlay_build --check >/dev/null

echo "== binding drift (binding-on trace vs results/BENCH_binding_drift.json)"
# Rerun the binding-on FemPIC trace in a temp dir (it writes
# results/BENCH_binding_drift.json under its working directory) and
# compare the whole file: its rebalance inputs are deterministic for a
# given thread count (the run is `Par`, its pieces reduced in piece
# order; the committed file is recorded on a 2-core host), so a changed
# move, deposit, sort or rebalance rule shows up here before
# rebalance_regression replays stale inputs.
drift=$(mktemp -d)
trace_bin="$PWD/target/release/binding_drift_trace"
(cd "$drift" && env -u OPPIC_SCALE -u OPPIC_STEPS -u OPPIC_TELEMETRY "$trace_bin" >/dev/null)
if ! diff results/BENCH_binding_drift.json "$drift/results/BENCH_binding_drift.json" >&2; then
    echo "results/BENCH_binding_drift.json drifted from the code; re-record it with binding_drift_trace" >&2
    rm -rf "$drift"
    exit 1
fi
rm -rf "$drift"

echo "== conformance --quick (cross-backend differential matrix)"
./target/release/conformance --quick >/dev/null
# A failing matrix cell writes a shrunk reproducer under
# results/conformance/ — any uncommitted artifact there means a red
# run left evidence behind and must not slip through a green gate.
if [ -n "$(git status --porcelain -- results/conformance 2>/dev/null)" ]; then
    echo "uncommitted conformance reproducers found:" >&2
    git status --porcelain -- results/conformance >&2
    exit 1
fi

echo "== conformance --quick twice (stdout is the same from run to run)"
# The run times go to stderr; everything on stdout is a function of
# the build, so two runs in a scratch dir must print the same bytes.
twice=$(mktemp -d)
conformance_bin="$PWD/target/release/conformance"
(cd "$twice" && "$conformance_bin" --quick >run1.out 2>/dev/null &&
    "$conformance_bin" --quick >run2.out 2>/dev/null)
if ! cmp "$twice/run1.out" "$twice/run2.out" >&2; then
    diff "$twice/run1.out" "$twice/run2.out" >&2 || true
    echo "conformance --quick printed different stdout on two runs" >&2
    rm -rf "$twice"
    exit 1
fi
rm -rf "$twice"

echo "== conformance --chaos --quick (seeded fault schedules, DESIGN.md §10)"
# Every seeded schedule must converge bit-exactly to the fault-free
# reference or abort with a typed error; silent corruption exits 1.
./target/release/conformance --chaos --quick >/dev/null
# Clean aborts exit 0 but leave a shrunk chaos reproducer behind —
# the same porcelain gate catches them.
if [ -n "$(git status --porcelain -- results/conformance 2>/dev/null)" ]; then
    echo "uncommitted chaos reproducers found:" >&2
    git status --porcelain -- results/conformance >&2
    exit 1
fi

echo "== reproducer replays (committed files of both formats, DESIGN.md §9-§10)"
# Reproducers written before today's code must still parse and replay:
# a clean two-rank matrix cell and every committed chaos cell but the
# abort-policy kill, all of which pass, so each replay exits 0 with its
# PASS line.
fixtures=crates/conformance/tests/fixtures
abort_kill=$fixtures/chaos-kill0at3-exchange-abort-xc1-r4-s8-p48-t6.json
replays=("--replay $fixtures/fempic-seq-seq-mh-mpi2.json")
for chaos in "$fixtures"/chaos-*.json; do
    [ "$chaos" = "$abort_kill" ] || replays+=("--chaos-replay $chaos")
done
for replay in "${replays[@]}"; do
    # shellcheck disable=SC2086 # the flag and the path are two words
    if ! out=$(./target/release/conformance $replay) ||
        ! grep -q '^PASS —' <<<"$out"; then
        printf '%s\n' "$out" >&2
        echo "conformance $replay did not replay green" >&2
        exit 1
    fi
done
# A mutated reproducer must reproduce on the runtime it names (here
# two MPI ranks), and the abort-policy kill must abort again: each
# exits 1 with no PASS line.
mutated=$fixtures/fempic-pool4-sr-dh-mpi2-sorted-bind-mutated.json
for replay in "--replay $mutated" "--chaos-replay $abort_kill"; do
    status=0
    # shellcheck disable=SC2086 # the flag and the path are two words
    out=$(./target/release/conformance $replay) || status=$?
    if [ "$status" -ne 1 ] || grep -q '^PASS' <<<"$out"; then
        printf '%s\n' "$out" >&2
        echo "conformance $replay exited $status; it must reproduce, not pass" >&2
        exit 1
    fi
done

echo "== schedule audit (whole-step dataflow, DESIGN.md §11)"
# Record both apps' default-config step schedules, audit them, and fail
# on any Error verdict (the analyzer exits non-zero) or on report
# drift: the reports under results/schedule/ are committed, so a
# schedule or verdict change must show up in the diff.
mkdir -p results/schedule
./target/release/fempic --record-schedule /tmp/oppic_ci_fempic_schedule.json >/dev/null
./target/release/oppic-analyzer --audit-schedule /tmp/oppic_ci_fempic_schedule.json \
    --report results/schedule/fempic_schedule_report.json \
    --dot results/schedule/fempic_schedule.dot >/dev/null
./target/release/cabana --record-schedule /tmp/oppic_ci_cabana_schedule.json >/dev/null
./target/release/oppic-analyzer --audit-schedule /tmp/oppic_ci_cabana_schedule.json \
    --report results/schedule/cabana_schedule_report.json \
    --dot results/schedule/cabana_schedule.dot >/dev/null
rm -f /tmp/oppic_ci_fempic_schedule.json /tmp/oppic_ci_cabana_schedule.json
if [ -n "$(git status --porcelain -- results/schedule 2>/dev/null)" ]; then
    echo "schedule reports drifted from the committed baselines:" >&2
    git status --porcelain -- results/schedule >&2
    git --no-pager diff -- results/schedule >&2 || true
    exit 1
fi

echo "== bench smoke"
cargo bench --offline --workspace --no-run --quiet
# The density sweep also asserts that every strategy agrees
# numerically.
OPPIC_SCALE=0.02 OPPIC_STEPS=2 ./target/release/ablation_deposit_strategies >/dev/null

# Observability smoke stage: `./ci.sh obs` runs the live plane
# end-to-end (DESIGN.md §6). The fault-free controls (fempic, then
# cabana through the same front end) must exit 0 with zero watchdog
# alerts and an audit-clean /metrics snapshot; the
# injected-stall control must exit 3 with exactly one alert and a
# flight-recorder dump that decodes to JSONL records holding that one
# alert; the overhead gate must hold the
# plane within 3% of telemetry-only median step time. (The live HTTP
# exporter itself is scraped by bench_obs_overhead and the obs crate
# tests; here the snapshot file carries the same exposition text.)
if [ "${1:-}" = "obs" ]; then
    echo "== obs: fault-free control (exit 0, zero alerts, audit-clean /metrics)"
    rm -f /tmp/oppic_ci_obs.prom /tmp/oppic_ci_obs.opfr
    ./target/release/fempic configs/fempic_obs.cfg \
        --flight-recorder /tmp/oppic_ci_obs.opfr \
        --metrics-dump /tmp/oppic_ci_obs.prom --watchdog >/dev/null
    ./target/release/oppic-analyzer --audit-metrics /tmp/oppic_ci_obs.prom
    if [ -e /tmp/oppic_ci_obs.opfr ]; then
        echo "obs: fault-free run dumped the flight recorder (unexpected alert)" >&2
        exit 1
    fi

    echo "== obs: cabana fault-free control (same front end, exit 0, audit-clean /metrics)"
    rm -f /tmp/oppic_ci_obs.prom
    ./target/release/cabana configs/cabana_two_stream.cfg \
        --flight-recorder /tmp/oppic_ci_obs.opfr \
        --metrics-dump /tmp/oppic_ci_obs.prom --watchdog >/dev/null
    ./target/release/oppic-analyzer --audit-metrics /tmp/oppic_ci_obs.prom
    if [ -e /tmp/oppic_ci_obs.opfr ]; then
        echo "obs: cabana fault-free run dumped the flight recorder (unexpected alert)" >&2
        exit 1
    fi

    echo "== obs: injected stall (exit 3, one alert, decodable dump)"
    rc=0
    ./target/release/fempic configs/fempic_obs.cfg \
        --flight-recorder /tmp/oppic_ci_obs.opfr \
        --metrics-dump /tmp/oppic_ci_obs.prom --watchdog \
        --obs-inject-stall 30 >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "obs: stall run exited $rc, expected 3 (watchdog alerts)" >&2
        exit 1
    fi
    # The decoded dump is a summary line and then JSONL records: every
    # record must parse, and exactly one is the step_time_regression
    # alert.
    ./target/release/oppic-report --decode-recorder /tmp/oppic_ci_obs.opfr >/tmp/oppic_ci_obs.jsonl
    if ! python3 - /tmp/oppic_ci_obs.jsonl <<'PY'
import json, sys
summary, *lines = open(sys.argv[1]).read().splitlines()
if not summary.startswith("flight recorder dump:"):
    sys.exit(f"no summary line: {summary!r}")
records = [json.loads(line) for line in lines]
alerts = [r for r in records if r["type"] == "alert"]
if [a["rule"] for a in alerts] != ["step_time_regression"]:
    sys.exit(f"{len(records)} record(s), alerts {alerts}")
PY
    then
        echo "obs: the decoded dump is not JSONL with exactly one step_time_regression alert" >&2
        exit 1
    fi
    rm -f /tmp/oppic_ci_obs.prom /tmp/oppic_ci_obs.opfr /tmp/oppic_ci_obs.jsonl

    echo "== obs: overhead gate (recorder + exporter within 3%)"
    # CI writes the measurement to /tmp; the committed
    # results/BENCH_obs_overhead.json is refreshed by hand.
    ./target/release/bench_obs_overhead --out /tmp/oppic_ci_obs_overhead.json
    rm -f /tmp/oppic_ci_obs_overhead.json
fi

# Rank-failure smoke stage: `./ci.sh chaos-rank` exercises the
# heartbeat failure detector, membership shrink, and checkpoint replay
# end-to-end (DESIGN.md §13). The MTTR smoke kills a rank mid-step and
# requires the survivors to be bit-identical to the planned-shrink
# twin (the binary exits non-zero otherwise and records nothing); the
# full rank-kill conformance cells then run under the chaos verdict
# lattice (Recovered / CleanAbort, never SilentCorruption), and the
# committed MTTR artifact must still satisfy its regression pins.
if [ "${1:-}" = "chaos-rank" ]; then
    echo "== chaos-rank: MTTR smoke (mid-step kill, bit-identical shrink)"
    ./target/release/fig_rank_failure_mttr --smoke >/dev/null

    echo "== chaos-rank: rank-kill conformance cells (full chaos matrix)"
    ./target/release/conformance --chaos --full >/dev/null
    if [ -n "$(git status --porcelain -- results/conformance 2>/dev/null)" ]; then
        echo "uncommitted chaos reproducers found:" >&2
        git status --porcelain -- results/conformance >&2
        exit 1
    fi

    echo "== chaos-rank: committed MTTR artifact still satisfies the pins"
    cargo test --offline --release -p oppic-bench --test mttr_regression --quiet
fi

# Allowed-to-warn sanitizer stage: `./ci.sh sanitize` additionally runs
# miri over oppic-core's lock-free deposit paths and a ThreadSanitizer
# smoke of the rayon executors. Both need a nightly toolchain with the
# right components; when unavailable the stage reports and moves on —
# it never turns the gate red (findings are triaged by hand).
if [ "${1:-}" = "sanitize" ]; then
    echo "== sanitize (allowed to warn)"
    if cargo +nightly miri --version >/dev/null 2>&1; then
        # Skip-list: fs/time-heavy tests (telemetry sinks, checkpoint
        # round-trips) are outside miri's isolated environment.
        MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test --offline -p oppic-core --lib -- \
            --skip telemetry --skip checkpoint --skip sink \
            || echo "sanitize: miri reported findings (non-fatal)"
    else
        echo "sanitize: nightly miri unavailable, skipping"
    fi
    if cargo +nightly --version >/dev/null 2>&1; then
        RUSTFLAGS="-Zsanitizer=thread" RUST_TEST_THREADS=2 \
        cargo +nightly test --offline -p oppic-core --lib deposit -- --test-threads=2 \
            || echo "sanitize: tsan smoke reported findings (non-fatal)"
    else
        echo "sanitize: nightly toolchain unavailable, skipping"
    fi
fi

# Benchmark smoke stage: `./ci.sh perfbench` runs the benchmark
# package's fidelity tests (traced loops bit-identical to the apps'
# step(), every workload verifying clean), then a short untraced run of
# each BENCHMARK.json workload. A run passes only if its final JSON
# record reports `"correct": true` and `"failed": 0`.
if [ "${1:-}" = "perfbench" ]; then
    echo "== perfbench: fidelity tests"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml --quiet

    for workload in fempic_duct_seq fempic_duct_2rank cabana_two_stream_seq; do
        echo "== perfbench: $workload smoke (3 s, untraced)"
        out=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seconds 3 --trace 0) \
            || { echo "perfbench: $workload exited non-zero" >&2; exit 1; }
        record=$(printf '%s\n' "$out" | grep '^{' | tail -n 1)
        if ! printf '%s' "$record" | grep -q '"correct": true' \
            || ! printf '%s' "$record" | grep -q '"failed": 0,'; then
            echo "perfbench: $workload did not verify clean: $record" >&2
            exit 1
        fi
    done
fi

echo "CI OK"
