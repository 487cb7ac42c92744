#!/bin/sh
# Local CI: exactly what a PR must pass.
#   ./ci.sh          — build, test, lint
# Tier-1 (ROADMAP.md) is `cargo build --release && cargo test -q`;
# clippy is held to zero warnings across the workspace.
set -eux

# Every backgrounded daemon registers here; the trap reaps them even
# when `set -e` aborts the script mid-smoke, so a failed run never
# leaks cfr-node/cfr-serve processes.
PIDS=""
cleanup() {
  for p in $PIDS; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT INT TERM

# default-members makes both commands cover every crate; the vendored
# stand-ins under third_party/ are outside it, so their own tests run
# on the line after.
cargo build --release
cargo test -q
cargo test -q -p rand -p proptest
cargo clippy --workspace -- -D warnings
# The whole workspace is held rustfmt-clean.
cargo fmt --all --check

# The performance ledger is its own workspace, so nothing above notices
# when an engine API it calls breaks: build it and run every workload
# once with output checks on (BENCHMARK.json; non-zero exit fails CI).
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --quick

# Observability: a traced run must export a Chrome trace that
# trace-check accepts, with engine spans present (DESIGN.md §8). The
# streaming (io.read) and sparse-inspector (sparse.inspect/region)
# exports are validated by `cargo test` above.
cargo run --release -p bench --bin bench -- kmeans \
  --n 2000 --d 4 --k 4 --iters 2 --trace-out target/ci-trace.json
cargo run --release -p obs --bin trace-check -- target/ci-trace.json \
  --expect split --expect combine --expect finalize --expect pass

# Distributed engine: a real 2-process cfr-node cluster must run
# k-means end to end and ship a trace with one process track per node
# plus the coordinator (DESIGN.md §9).
rm -f target/ci-node1.addr target/ci-node2.addr
target/release/cfr-node --listen 127.0.0.1:0 --port-file target/ci-node1.addr &
NODE1=$!
PIDS="$PIDS $NODE1"
target/release/cfr-node --listen 127.0.0.1:0 --port-file target/ci-node2.addr &
NODE2=$!
PIDS="$PIDS $NODE2"
for f in target/ci-node1.addr target/ci-node2.addr; do
  i=0
  until [ -s "$f" ]; do
    i=$((i + 1)); [ "$i" -gt 100 ] && { echo "cfr-node never wrote $f" >&2; exit 1; }
    sleep 0.1
  done
done
cargo run --release -p bench --bin bench -- kmeans \
  --n 2000 --d 4 --k 4 --iters 2 \
  --node-addr "$(cat target/ci-node1.addr)" \
  --node-addr "$(cat target/ci-node2.addr)" \
  --trace-out target/ci-cluster-trace.json
wait "$NODE1" "$NODE2"
cargo run --release -p obs --bin trace-check -- target/ci-cluster-trace.json \
  --min-pids 3 --expect node.pass --expect cluster.round --expect cluster.combine \
  --expect-attr cluster.round:units --expect-attr cluster.round:steal

# Fault tolerance: a real 2-process cluster where one cfr-node kills
# itself mid-round (on its first work unit after one completed round)
# must recover by shard reassignment, checkpoint every round, and
# finish with ft.recover/ft.checkpoint in the trace (DESIGN.md §11).
# The chaos node aborts by design; its exit status is expected to be
# nonzero.
rm -rf target/ci-ft-ckpt target/ci-chaos.addr target/ci-surv.addr
target/release/cfr-node --listen 127.0.0.1:0 --port-file target/ci-chaos.addr \
  --chaos-kill-after-rounds 1 &
CHAOS=$!
PIDS="$PIDS $CHAOS"
target/release/cfr-node --listen 127.0.0.1:0 --port-file target/ci-surv.addr &
SURV=$!
PIDS="$PIDS $SURV"
for f in target/ci-chaos.addr target/ci-surv.addr; do
  i=0
  until [ -s "$f" ]; do
    i=$((i + 1)); [ "$i" -gt 100 ] && { echo "cfr-node never wrote $f" >&2; exit 1; }
    sleep 0.1
  done
done
cargo run --release -p bench --bin bench -- kmeans \
  --n 2000 --d 4 --k 4 --iters 3 \
  --node-addr "$(cat target/ci-chaos.addr)" \
  --node-addr "$(cat target/ci-surv.addr)" \
  --checkpoint-dir target/ci-ft-ckpt \
  --trace-out target/ci-ft-trace.json
wait "$CHAOS" || true
wait "$SURV"
cargo run --release -p obs --bin trace-check -- target/ci-ft-trace.json \
  --expect ft.recover --expect ft.checkpoint --expect cluster.round --expect node.pass
rm -rf target/ci-ft-ckpt

# Elastic scheduling (DESIGN.md §16) — the same round protocol as the
# two smokes above, with stealing on: a 2-node cluster where the first
# node is a forced straggler (--slow-ms per work unit) must see its units
# stolen by the fast peer, and a third cfr-node joining the membership
# hub mid-job must be absorbed at a round barrier — sched.steal and
# sched.join land in the trace, the counters in the metrics export.
# The joiner retries until the coordinator's hub is up, then serves the
# rest of the job from the inside and exits 0 when it ends.
rm -f target/ci-enode1.addr target/ci-enode2.addr
HUB_PORT=$((20000 + $$ % 20000))
target/release/cfr-node --listen 127.0.0.1:0 --port-file target/ci-enode1.addr \
  --slow-ms 40 &
ENODE1=$!
PIDS="$PIDS $ENODE1"
target/release/cfr-node --listen 127.0.0.1:0 --port-file target/ci-enode2.addr &
ENODE2=$!
PIDS="$PIDS $ENODE2"
for f in target/ci-enode1.addr target/ci-enode2.addr; do
  i=0
  until [ -s "$f" ]; do
    i=$((i + 1)); [ "$i" -gt 100 ] && { echo "cfr-node never wrote $f" >&2; exit 1; }
    sleep 0.1
  done
done
target/release/bench kmeans \
  --n 2000 --d 4 --k 4 --iters 4 \
  --node-addr "$(cat target/ci-enode1.addr)" \
  --node-addr "$(cat target/ci-enode2.addr)" \
  --steal --grain 100 --join-listen 127.0.0.1:"$HUB_PORT" \
  --trace-out target/ci-elastic-trace.json \
  --metrics-out target/ci-elastic-metrics.json &
EBENCH=$!
PIDS="$PIDS $EBENCH"
(
  i=0
  until target/release/cfr-node --join 127.0.0.1:"$HUB_PORT" 2>/dev/null; do
    i=$((i + 1)); [ "$i" -gt 100 ] && exit 1
    sleep 0.1
  done
) &
EJOINER=$!
PIDS="$PIDS $EJOINER"
wait "$EBENCH"
wait "$EJOINER"
wait "$ENODE1" "$ENODE2"
cargo run --release -p obs --bin trace-check -- target/ci-elastic-trace.json \
  --expect sched.join --expect sched.steal --expect cluster.round --expect node.pass \
  --expect-attr cluster.round:units --expect-attr cluster.round:steal
cargo run --release -p obs --bin trace-check -- target/ci-elastic-metrics.json \
  --expect-counter sched.steals=1 --expect-counter sched.joins=1
rm -f target/ci-elastic-trace.json target/ci-elastic-metrics.json

# FREERIDE as a service: a persistent cfr-serve daemon over a shared
# 2-node fleet must run two concurrent tenant submissions, ship a server
# trace laying the jobs side by side (pid 0 = server, one pid per job),
# and serve a repeated Chapel submission from the compiled-program cache
# — the repeat's job trace must carry no frontend or compile spans at
# all (DESIGN.md §12).
rm -f target/ci-snode1.addr target/ci-snode2.addr target/ci-serve.addr
target/release/cfr-datagen --out target/ci-serve-data.frds --rows 2000 --dims 4
target/release/cfr-node --listen 127.0.0.1:0 --port-file target/ci-snode1.addr \
  --concurrent --sessions 2 &
SNODE1=$!
PIDS="$PIDS $SNODE1"
target/release/cfr-node --listen 127.0.0.1:0 --port-file target/ci-snode2.addr \
  --concurrent --sessions 2 &
SNODE2=$!
PIDS="$PIDS $SNODE2"
for f in target/ci-snode1.addr target/ci-snode2.addr; do
  i=0
  until [ -s "$f" ]; do
    i=$((i + 1)); [ "$i" -gt 100 ] && { echo "cfr-node never wrote $f" >&2; exit 1; }
    sleep 0.1
  done
done
rm -f target/ci-metrics.addr
# Fresh artifact cache for the native-codegen smoke below: the daemon
# inherits CFR_CODEGEN_DIR, so its first compiled-backend job is a real
# cold `rustc` compile, not a leftover artifact from an earlier run.
rm -rf target/ci-codegen-cache
CFR_CODEGEN_DIR=$PWD/target/ci-codegen-cache
export CFR_CODEGEN_DIR
target/release/cfr-serve --listen 127.0.0.1:0 --port-file target/ci-serve.addr \
  --node-addr "$(cat target/ci-snode1.addr)" \
  --node-addr "$(cat target/ci-snode2.addr)" \
  --max-concurrent 2 --trace phases \
  --metrics-listen 127.0.0.1:0 --metrics-port-file target/ci-metrics.addr &
SERVE=$!
PIDS="$PIDS $SERVE"
i=0
until [ -s target/ci-serve.addr ] && [ -s target/ci-metrics.addr ]; do
  i=$((i + 1)); [ "$i" -gt 100 ] && { echo "cfr-serve never wrote its port files" >&2; exit 1; }
  sleep 0.1
done
SERVE_ADDR=$(cat target/ci-serve.addr)
METRICS_ADDR=$(cat target/ci-metrics.addr)
# Two concurrent k-means submissions from distinct tenants onto the
# shared fleet.
target/release/cfr-submit --server "$SERVE_ADDR" --tenant alice \
  --task kmeans --dataset target/ci-serve-data.frds \
  --params 2,4 --init 0,1,2,3,8,9,10,11 --rounds 2 &
SUB1=$!
target/release/cfr-submit --server "$SERVE_ADDR" --tenant bob \
  --task kmeans --dataset target/ci-serve-data.frds \
  --params 2,4 --init 0,1,2,3,8,9,10,11 --rounds 2 &
SUB2=$!
wait "$SUB1" "$SUB2"
wait "$SNODE1" "$SNODE2"
# The same Chapel program twice: the first run compiles, the repeat is a
# program-cache hit whose trace has no frontend/compile spans.
cat > target/ci-sum.chpl <<'EOF'
var A: [1..500] real;
for i in 1..500 { A[i] = i; }
var total: real = + reduce A;
EOF
target/release/cfr-submit --server "$SERVE_ADDR" --tenant alice \
  --chapel target/ci-sum.chpl --global total \
  --job-trace-out target/ci-serve-job1.json
target/release/cfr-submit --server "$SERVE_ADDR" --tenant alice \
  --chapel target/ci-sum.chpl --global total \
  --job-trace-out target/ci-serve-job2.json | tee target/ci-interp.out
cargo run --release -p obs --bin trace-check -- target/ci-serve-job1.json \
  --expect core.compile --expect frontend.parse
cargo run --release -p obs --bin trace-check -- target/ci-serve-job2.json \
  --forbid core.compile --forbid frontend.parse --forbid sema.analyze
# Native codegen escape hatch (DESIGN.md §14): the same program under
# --backend compiled must really take the native path — a cold
# codegen.compile in its trace (fresh CFR_CODEGEN_DIR above) — and
# answer bit-identically to the interpreted runs. The first compiled
# job is a program-cache *miss* even though the source already ran
# twice: the cache keys on (source, opt, backend). Its repeat is then a
# cache hit whose kernel artifact is warm too (no second rustc). Skips
# cleanly without rustc on PATH, where the compiled backend would fall
# back to the interpreter and the codegen.compile gate would be
# vacuous.
if command -v rustc >/dev/null 2>&1; then
  target/release/cfr-submit --server "$SERVE_ADDR" --tenant alice \
    --chapel target/ci-sum.chpl --global total --backend compiled \
    --job-trace-out target/ci-codegen-job1.json | tee target/ci-compiled.out
  target/release/cfr-submit --server "$SERVE_ADDR" --tenant alice \
    --chapel target/ci-sum.chpl --global total --backend compiled \
    --job-trace-out target/ci-codegen-job2.json
  cargo run --release -p obs --bin trace-check -- target/ci-codegen-job1.json \
    --expect codegen.emit --expect codegen.compile --expect codegen.load
  cargo run --release -p obs --bin trace-check -- target/ci-codegen-job2.json \
    --forbid core.compile --forbid frontend.parse --forbid codegen.compile
  # Bit-identity: the compiled backend's answer equals the interpreter's.
  [ "$(grep 'total = ' target/ci-compiled.out)" = "$(grep 'total = ' target/ci-interp.out)" ]
  CODEGEN_JOBS=2
else
  echo "ci: skipping compiled-kernel smoke (no rustc on PATH)"
  CODEGEN_JOBS=0
fi
# Telemetry (DESIGN.md §13): the daemon's HTTP endpoint must answer
# /healthz, and its /metrics exposition must carry the fleet counters —
# 4 jobs completed (2 k-means + 2 Chapel) and the k-means rounds the
# nodes executed. cfr-top exercises both the scrape path and the Top
# protocol round-trip.
[ "$(target/release/cfr-top --scrape "$METRICS_ADDR" --path /healthz)" = ok ]
target/release/cfr-top --scrape "$METRICS_ADDR" > target/ci-metrics.prom
cargo run --release -p obs --bin trace-check -- target/ci-metrics.prom \
  --expect-counter cfr_serve_jobs_completed=$((4 + CODEGEN_JOBS)) \
  --expect-counter cfr_serve_jobs_submitted=$((4 + CODEGEN_JOBS)) \
  --expect-counter cfr_fleet_rounds=4 \
  --expect-counter cfr_serve_program_cache_hits=$((1 + CODEGEN_JOBS / 2))
target/release/cfr-top --server "$SERVE_ADDR"
target/release/cfr-submit --server "$SERVE_ADDR" --status \
  --dump-server-trace target/ci-serve-trace.json --stop
wait "$SERVE"
cargo run --release -p obs --bin trace-check -- target/ci-serve-trace.json \
  --min-pids 3 --expect serve.submit --expect serve.job_done
rm -f target/ci-serve-data.frds target/ci-sum.chpl target/ci-metrics.prom \
  target/ci-interp.out target/ci-compiled.out
rm -rf target/ci-codegen-cache
