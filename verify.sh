#!/usr/bin/env bash
# The single CI gate: formatting, lints, release build, full test suite.
# The workspace has no external dependencies, so everything runs --offline.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --all -- --check
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
cargo build --offline --release --workspace
# The benchmark package links the service crates' public API (Answer,
# batch_envelope, report_from_json, Store, obs::http::Client, …); compile
# it so an API break fails here rather than in a benchmark run.
cargo build --offline --release --manifest-path perfbench/Cargo.toml
cargo test --offline --workspace -q

# Fixed-seed adversary smoke sweep: every runtime layer under crash
# injection, shrinking on. Fails the build on any oracle failure; the
# seeds are pinned so a failure here is replayable bit-for-bit.
IIS=target/release/iis-cli
for layer in iis atomic emulation bg; do
  "$IIS" fuzz --layer "$layer" --seed 7 --cases 200 --crashes 2 --shrink
done
"$IIS" fuzz --layer iis --rounds 2 --exhaustive
"$IIS" fuzz --layer iis --task oneshot:2 --rounds 1 --seed 7 --cases 200 --crashes 2 --shrink
# Storage-fault sweep: the witness store's recovery invariants under
# injected short writes, ENOSPC, bit flips, failed flushes and crashes.
"$IIS" fuzz --layer store --seed 7 --cases 500 --shrink

# Live-introspection smoke: solve with --serve on an ephemeral port, scrape
# /metrics and /progress over bash's /dev/tcp while the process runs, then
# require a clean exit. /metrics must be Prometheus text exposition and
# contain solve_nodes_total; /progress must carry exactly the committed
# key schema (crates/obs/tests/golden/progress_keys.txt).
serve_log=$(mktemp)
"$IIS" solve kset:2:2 --max-rounds 2 --jobs 2 --serve 127.0.0.1:0 >/dev/null 2>"$serve_log" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's#^serving on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' "$serve_log")
  [ -n "$port" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { echo "serve smoke: solver died early"; cat "$serve_log"; exit 1; }
  sleep 0.05
done
[ -n "$port" ] && echo "serve smoke: scraping port $port" || { echo "serve smoke: no port announced"; cat "$serve_log"; exit 1; }
scrape() { # scrape PATH -> body on stdout
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' "$1" >&3
  sed '1,/^\r*$/d' <&3
  exec 3>&- 3<&-
}
metrics=$(scrape /metrics)
echo "$metrics" | grep -Eq '^[a-z_]+(\{[^}]*\})? [0-9]' \
  || { echo "serve smoke: /metrics is not Prometheus text"; echo "$metrics"; exit 1; }
echo "$metrics" | grep -q '^solve_nodes_total ' \
  || { echo "serve smoke: /metrics lacks solve_nodes_total"; echo "$metrics"; exit 1; }
progress=$(scrape /progress)
while read -r key; do
  echo "$progress" | grep -q "\"$key\"" \
    || { echo "serve smoke: /progress lacks key $key"; echo "$progress"; exit 1; }
done < crates/obs/tests/golden/progress_keys.txt
wait "$serve_pid" || { echo "serve smoke: solver exited nonzero"; cat "$serve_log"; exit 1; }
rm -f "$serve_log"
echo "serve smoke: ok"

# Solve-service smoke: start `iis serve` with a persistent store on an
# ephemeral port, POST the same task twice, and require the second reply
# to come from the store ("cached": true) with a byte-identical witness
# and serve_cache_hits_total = 1; probe /healthz and /readyz; accept an
# async job and POST /shutdown while it may still be running — the drain
# must finish it (summary says so) and the exit must be clean.
serve_log=$(mktemp)
serve_out=$(mktemp)
store_dir=$(mktemp -d)
"$IIS" serve --addr 127.0.0.1:0 --store "$store_dir" >"$serve_out" 2>"$serve_log" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's#^serving on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' "$serve_log")
  [ -n "$port" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { echo "solve service smoke: serve died early"; cat "$serve_log"; exit 1; }
  sleep 0.05
done
[ -n "$port" ] || { echo "solve service smoke: no port announced"; cat "$serve_log"; exit 1; }
echo "solve service smoke: POSTing to port $port"
post() { # post PATH BODY -> body on stdout
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'POST %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "$1" "${#2}" "$2" >&3
  sed '1,/^\r*$/d' <&3
  exec 3>&- 3<&-
}
body='{"spec": "eps:1:3", "max_rounds": 2}'
first=$(post /solve "$body")
echo "$first" | grep -q '"cached":false' \
  || { echo "solve service smoke: first reply should be a miss"; echo "$first"; exit 1; }
second=$(post /solve "$body")
echo "$second" | grep -q '"cached":true' \
  || { echo "solve service smoke: second reply should be a store hit"; echo "$second"; exit 1; }
wit1=$(printf '%s' "$first"  | sed 's/.*"witness"://')
wit2=$(printf '%s' "$second" | sed 's/.*"witness"://')
[ -n "$wit1" ] && [ "$wit1" = "$wit2" ] \
  || { echo "solve service smoke: witnesses differ"; echo "$wit1"; echo "$wit2"; exit 1; }
metrics=$(scrape /metrics)
hits=$(echo "$metrics" | sed -n 's/^serve_cache_hits_total //p')
[ "$hits" = "1" ] \
  || { echo "solve service smoke: expected serve_cache_hits_total 1, got '$hits'"; exit 1; }
# the store's corruption counters are registered (at zero) from the start
echo "$metrics" | grep -q '^store_checksum_failures_total ' \
  || { echo "solve service smoke: /metrics lacks store_checksum_failures_total"; echo "$metrics"; exit 1; }
# liveness and readiness answer while serving
scrape /healthz | grep -q '"ok": true' \
  || { echo "solve service smoke: /healthz not ok"; exit 1; }
scrape /readyz | grep -q '"ready":true' \
  || { echo "solve service smoke: /readyz not ready"; exit 1; }
# drain path: accept an async job, then shut down while it may be running
accepted=$(post /solve '{"spec": "trivial:2", "max_rounds": 1, "wait": false}')
echo "$accepted" | grep -q '"job":' \
  || { echo "solve service smoke: async solve not accepted"; echo "$accepted"; exit 1; }
post /shutdown '' >/dev/null
wait "$serve_pid" || { echo "solve service smoke: serve exited nonzero"; cat "$serve_log"; exit 1; }
grep -q '2 jobs accepted, 2 completed' "$serve_out" \
  || { echo "solve service smoke: drain did not finish the accepted job"; cat "$serve_out"; exit 1; }
rm -rf "$serve_log" "$serve_out" "$store_dir"
echo "solve service smoke: ok"

# Gateway fuzz sweep: routing soundness under injected transport faults —
# no question answered wrongly or misaligned, only late or 503.
"$IIS" fuzz --layer gateway --seed 7 --cases 300 --shrink

# Gateway smoke: two shards behind `iis gateway`; a 12-question batch is
# scattered, coalesced, and gathered; then one shard is killed and the
# same batch must come back with every answer byte-identical (purity makes
# any replica's answer THE answer) and gateway_failovers_total >= 1. The
# prober interval is set far out so the dead shard is discovered on the
# request path — the failover being tested, not the health prober.
sA_log=$(mktemp); sB_log=$(mktemp); gw_log=$(mktemp); gw_out=$(mktemp)
"$IIS" serve --addr 127.0.0.1:0 >/dev/null 2>"$sA_log" &
pidA=$!
"$IIS" serve --addr 127.0.0.1:0 >/dev/null 2>"$sB_log" &
pidB=$!
port_of() { # port_of LOGFILE PATTERN
  local p=""
  for _ in $(seq 1 100); do
    p=$(sed -n "s#^$2 on http://127\.0\.0\.1:\([0-9]*\)\$#\1#p" "$1")
    [ -n "$p" ] && { echo "$p"; return 0; }
    sleep 0.05
  done
  return 1
}
portA=$(port_of "$sA_log" serving) || { echo "gateway smoke: shard A never came up"; cat "$sA_log"; exit 1; }
portB=$(port_of "$sB_log" serving) || { echo "gateway smoke: shard B never came up"; cat "$sB_log"; exit 1; }
"$IIS" gateway --backends "127.0.0.1:$portA,127.0.0.1:$portB" --replicas 2 \
  --probe-ms 60000 --addr 127.0.0.1:0 >"$gw_out" 2>"$gw_log" &
pidG=$!
portG=$(port_of "$gw_log" gateway) || { echo "gateway smoke: gateway never came up"; cat "$gw_log"; exit 1; }
echo "gateway smoke: shards $portA,$portB behind gateway $portG"
req() { # req PORT METHOD PATH BODY -> body on stdout
  exec 3<>"/dev/tcp/127.0.0.1/$1"
  printf '%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "$2" "$3" "${#4}" "$4" >&3
  sed '1,/^\r*$/d' <&3
  exec 3>&- 3<&-
}
qs=""
for s in trivial:1 trivial:2 eps:1:3 eps:1:5 eps:1:9 oneshot:1; do
  for b in 1 2; do qs="$qs{\"spec\": \"$s\", \"max_rounds\": $b},"; done
done
batch="{\"questions\": [${qs%,}]}"
# warm both shards, then take the all-cached envelope as the baseline
req "$portG" POST /solve "$batch" >/dev/null
baseline=$(req "$portG" POST /solve "$batch")
echo "$baseline" | grep -q '"cached":false' \
  && { echo "gateway smoke: baseline batch not fully cached"; echo "$baseline"; exit 1; }
echo "$baseline" | grep -q '"answers":' \
  || { echo "gateway smoke: baseline is not a batch envelope"; echo "$baseline"; exit 1; }
# kill shard B mid-run; the gateway has not probed, so the next batch
# discovers the death on the request path and fails over
req "$portB" POST /shutdown '' >/dev/null
wait "$pidB" || { echo "gateway smoke: shard B exited nonzero"; cat "$sB_log"; exit 1; }
failover=$(req "$portG" POST /solve "$batch")
echo "$failover" | grep -q '"status":503' \
  && { echo "gateway smoke: failover batch refused a question"; echo "$failover"; exit 1; }
# normalize away cache flags and job ids: re-solved questions are fresh on
# the survivor, but their result bytes must not change
norm() { sed -E 's/"cached":(true|false)/"cached":_/g; s/"job":[0-9]+,//g'; }
[ "$(echo "$failover" | norm)" = "$(echo "$baseline" | norm)" ] \
  || { echo "gateway smoke: failed-over answers differ from baseline"; exit 1; }
# once the survivor has cached everything, the envelope is byte-identical
settled=$(req "$portG" POST /solve "$batch")
[ "$settled" = "$baseline" ] \
  || { echo "gateway smoke: settled envelope not byte-identical to baseline"; exit 1; }
metrics=$(req "$portG" GET /metrics '')
failovers=$(echo "$metrics" | sed -n 's/^gateway_failovers_total //p')
[ -n "$failovers" ] && [ "$failovers" -ge 1 ] \
  || { echo "gateway smoke: expected gateway_failovers_total >= 1, got '$failovers'"; echo "$metrics" | head -40; exit 1; }
echo "$metrics" | grep -q '^serve_requests_total ' \
  || { echo "gateway smoke: /metrics does not aggregate shard serve_* counters"; exit 1; }
req "$portG" GET /cluster '' | grep -q '"shards":' \
  || { echo "gateway smoke: /cluster has no shard report"; exit 1; }
req "$portG" POST /shutdown '' >/dev/null
wait "$pidG" || { echo "gateway smoke: gateway exited nonzero"; cat "$gw_log"; exit 1; }
grep -q 'failover' "$gw_out" \
  || { echo "gateway smoke: summary does not report failovers"; cat "$gw_out"; exit 1; }
req "$portA" POST /shutdown '' >/dev/null
wait "$pidA" || { echo "gateway smoke: shard A exited nonzero"; cat "$sA_log"; exit 1; }
rm -f "$sA_log" "$sB_log" "$gw_log" "$gw_out"
echo "gateway smoke: ok"
