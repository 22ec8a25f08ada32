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
# Three processes, two levels, every schedule: the id-driven protocol's
# name lookups at both levels, under the wait-freedom and task oracles.
"$IIS" fuzz --layer iis --task eps:2:3 --rounds 2 --exhaustive
# Storage-fault sweep: the witness store's recovery invariants under
# injected short writes, ENOSPC, bit flips, failed flushes and crashes.
"$IIS" fuzz --layer store --seed 7 --cases 500 --shrink

# Certified-refutation smoke: each question answers exactly for every
# round asked, well within 5 s, and names its Sperner certificate (an
# input face and a labelling of the output vertices). The certificate
# settles the kset questions from b = 1; consensus:2's rounds are all
# refuted first by the distance pass (its two decisions are not joined in
# Δ), which it names too.
out=$(timeout 5 "$IIS" solve consensus:2 --max-rounds 6) || { echo "certificate smoke: solve consensus:2 failed or ran past 5 s"; exit 1; }
echo "$out" | grep -q '^Distance refutation (no decision map at any b): σ = {.*}, Δ(.*) and Δ(.*) are not joined in Δ(σ)$' \
  || { echo "certificate smoke: solve consensus:2 names no distance refutation"; echo "$out"; exit 1; }
for q in "kset:3:3 --max-rounds 1" "kset:4:3 --max-rounds 1" "consensus:2 --max-rounds 6"; do
  # shellcheck disable=SC2086 # the question is a spec and its flags
  out=$(timeout 5 "$IIS" solve $q) || { echo "certificate smoke: solve $q failed or ran past 5 s"; exit 1; }
  for b in $(seq 0 "${q##* }"); do
    echo "$out" | grep -qx "b = $b: no decision map (exact)" \
      || { echo "certificate smoke: solve $q: b = $b is not exact"; echo "$out"; exit 1; }
  done
  echo "$out" | grep -q '^Sperner certificate (no decision map at any b): σ = {.*}, λ = {.*}$' \
    || { echo "certificate smoke: solve $q names no certificate"; echo "$out"; exit 1; }
done
echo "certificate smoke: ok"

# Distance smoke: the distance pass refutes every round a question may ask
# of eps:3:244 (two corners 244 apart, past 2^b for b ≤ 7) and eps:2:1953
# (b ≤ 10) before any tower is built: each answers exactly for b ≤ 6,
# within 5 s, and names the face, the two vertices, their distance and
# the bound.
for q in "eps:3:244 --max-rounds 6" "eps:2:1953 --max-rounds 6"; do
  # shellcheck disable=SC2086 # the question is a spec and its flags
  out=$(timeout 5 "$IIS" solve $q) || { echo "distance smoke: solve $q failed or ran past 5 s"; exit 1; }
  for b in $(seq 0 6); do
    echo "$out" | grep -qx "b = $b: no decision map (exact)" \
      || { echo "distance smoke: solve $q: b = $b is not exact"; echo "$out"; exit 1; }
  done
  echo "$out" | grep -q '^Distance refutation (no decision map at b ≤ [0-9]*): τ = {.*}, Δ(.*) and Δ(.*) are [0-9]* apart in H_τ, more than 2^b = [0-9]*$' \
    || { echo "distance smoke: solve $q names no refuting face"; echo "$out"; exit 1; }
done
echo "distance smoke: ok"

# Trace smoke: a sweep writes one solve.round record per round it decides,
# whichever decider settled it, and the outcome names that decider:
# kset:2:2 is searched at b = 0 and certified at b = 1; eps:1:9 is refuted
# by its distances at b ≤ 1 and searched to a witness at b = 2; the
# distance pass, asked before the certificate, refutes every round of
# consensus:2.
trace_dir=$(mktemp -d)
for case in "kset:2:2 --max-rounds 1|0:unsolvable 1:certified" \
            "eps:1:9 --max-rounds 3|0:distance 1:distance 2:solvable" \
            "consensus:2 --max-rounds 2|0:distance 1:distance 2:distance"; do
  q=${case%%|*}
  want=${case#*|}
  trace="$trace_dir/${q%% *}.jsonl"
  # shellcheck disable=SC2086 # the question is a spec and its flags
  "$IIS" solve $q --trace "$trace" >/dev/null
  got=$(grep '"kind":"solve.round"' "$trace" \
    | sed 's/.*"b":\([0-9]*\),"outcome":"\([a-z_]*\)".*/\1:\2/' | tr '\n' ' ')
  [ "${got% }" = "$want" ] \
    || { echo "trace smoke: solve $q traced '$got', not '$want'"; cat "$trace"; exit 1; }
done
rm -rf "$trace_dir"
echo "trace smoke: ok"

# Undecided-sweep smoke: a sweep stopped by the deadline or the node budget
# decides nothing. With a store it says so and stores nothing; without one
# it ends at its first undecided round and claims no refutation.
store_dir=$(mktemp -d)
out=$("$IIS" solve oneshot:1 --timeout-secs 0 --store "$store_dir")
echo "$out" | grep -q '^b = 1: TIMED OUT' \
  || { echo "undecided smoke: a zero timeout did not time out"; echo "$out"; exit 1; }
echo "$out" | grep -q "^store: miss — undecided, nothing stored (key [0-9a-f]*, 0 records in $store_dir)\$" \
  || { echo "undecided smoke: a timed-out sweep was stored"; echo "$out"; exit 1; }
out=$("$IIS" solve eps:2:4 --max-rounds 3 --budget 1)
echo "$out" | tail -1 | grep -q '^b = 2: undecided within 1 nodes' \
  || { echo "undecided smoke: an exhausted sweep did not end at b = 2"; echo "$out"; exit 1; }
echo "$out" | grep -q 'no decision map found' \
  && { echo "undecided smoke: an exhausted sweep claims a refutation"; echo "$out"; exit 1; }
# The deadline is polled in a tower build, a skeleton build and a compile
# too, not only in the search: eps:3:3's distances pass round 2, whose
# level of 90 000 facets takes 1.4–1.7 s to build and search (eps:3:4's,
# the same level, 1.1–1.4 s: too close to the deadline); the sweep stops
# within a fraction of a second of the deadline.
out=$(timeout 3 "$IIS" solve eps:3:3 --max-rounds 2 --timeout-secs 1) \
  || { echo "undecided smoke: eps:3:3 failed or ran past 3 s"; exit 1; }
echo "$out" | grep -q '^b = 2: TIMED OUT' \
  || { echo "undecided smoke: eps:3:3 did not time out at b = 2"; echo "$out"; exit 1; }
# Every job of iis serve has a deadline, and the drain waits on it: there
# is no --drain-secs, and a flag the service does not take starts nothing.
if out=$(timeout 5 "$IIS" serve --addr 127.0.0.1:0 --drain-secs 5 2>&1); then
  echo "undecided smoke: iis serve --drain-secs exited 0"; exit 1
fi
echo "$out" | grep -q 'serve does not take --drain-secs' \
  || { echo "undecided smoke: iis serve did not refuse --drain-secs"; echo "$out"; exit 1; }
rm -rf "$store_dir"
echo "undecided smoke: ok"

# Level-record smoke: a level of the tower is recorded where it is built,
# whoever builds it. A warm hit's witness check builds SDS^1 and SDS^2 of
# eps:1:9's input, so it counts two sds.builds and traces two sds.level.
store_dir=$(mktemp -d)
"$IIS" solve eps:1:9 --max-rounds 2 --store "$store_dir" >/dev/null
out=$("$IIS" solve eps:1:9 --max-rounds 2 --store "$store_dir" --stats --trace "$store_dir/trace.jsonl")
echo "$out" | grep -q '^store: hit' \
  || { echo "level smoke: the second solve was not a store hit"; echo "$out"; exit 1; }
echo "$out" | grep -Eq '^sds\.builds +2$' \
  || { echo "level smoke: the witness check did not count sds.builds 2"; echo "$out"; exit 1; }
levels=$(grep -c '"kind":"sds.level"' "$store_dir/trace.jsonl" || true)
[ "$levels" = 2 ] \
  || { echo "level smoke: $levels sds.level events, not 2"; cat "$store_dir/trace.jsonl"; exit 1; }
rm -rf "$store_dir"
echo "level smoke: ok"

# Gate smoke: a stored witness reaches its level through the same gate as
# a search, so a record claiming a witness on a level past the facet cap
# is refused before anything is built. A 106-byte line claiming an
# eps:5:2 witness at b = 1 (299 712 facets) costs a clean miss's time:
# no sds.builds, and the trace names the cap.
store_dir=$(mktemp -d)
out=$("$IIS" solve eps:5:2 --max-rounds 1 --store "$store_dir")
key=$(echo "$out" | sed -n 's/^store: .*(key \([0-9a-f]*\),.*/\1/p')
[ -n "$key" ] || { echo "gate smoke: no key on the store line"; echo "$out"; exit 1; }
record='{"results":[[0,false],[1,true]],"task":"eps","witness":{"b":1,"map":[]}}'
printf '{"key":"%s","value":"%s"}\n' "$key" "${record//\"/\\\"}" >>"$store_dir/seg-00000.jsonl"
out=$(timeout 3 "$IIS" solve eps:5:2 --max-rounds 1 --store "$store_dir" --stats --trace "$store_dir/trace.jsonl") \
  || { echo "gate smoke: the planted record's solve failed or ran past 3 s"; exit 1; }
echo "$out" | grep -q '^sds\.builds ' \
  && { echo "gate smoke: the planted record built a level"; echo "$out"; exit 1; }
grep '"kind":"cache.invalid_record"' "$store_dir/trace.jsonl" | grep -q 'past the cap of 100000; nothing was built' \
  || { echo "gate smoke: the refusal does not name the cap"; cat "$store_dir/trace.jsonl"; exit 1; }
# A stored-witness check keeps the solve's deadline: a planted line
# claiming a trivial:6 witness at b = 1 (47 293 facets of width 7, seconds
# to classify) is refused at the deadline, and the solve after it runs
# under the same deadline, so the question ends within 2 s.
key=$("$IIS" solve trivial:6 --max-rounds 1 --store "$store_dir/t6" | sed -n 's/^store: .*(key \([0-9a-f]*\),.*/\1/p')
[ -n "$key" ] || { echo "gate smoke: no trivial:6 key"; exit 1; }
mkdir "$store_dir/planted"
record='{"results":[[0,false],[1,true]],"task":"trivial","witness":{"b":1,"map":[]}}'
printf '{"key":"%s","value":"%s"}\n' "$key" "${record//\"/\\\"}" >"$store_dir/planted/seg-00000.jsonl"
timeout 2 "$IIS" solve trivial:6 --max-rounds 1 --store "$store_dir/planted" --timeout-secs 1 \
  --trace "$store_dir/t6.jsonl" >/dev/null \
  || { echo "gate smoke: the planted trivial:6 record's solve failed or ran past 2 s"; exit 1; }
grep '"kind":"cache.invalid_record"' "$store_dir/t6.jsonl" | grep -q 'deadline exceeded: witness check stopped at b = 1' \
  || { echo "gate smoke: the check was not stopped by the deadline"; cat "$store_dir/t6.jsonl"; exit 1; }
rm -rf "$store_dir"
echo "gate smoke: ok"

# Live-introspection smoke: solve with --serve on an ephemeral port, scrape
# /metrics and /progress over bash's /dev/tcp while the process runs, then
# require a clean exit. /metrics must be Prometheus text exposition and
# contain solve_nodes_total; /progress must carry exactly the committed
# key schema (crates/obs/tests/golden/progress_keys.txt).
serve_log=$(mktemp)
# (eps:3:3's distances refute b <= 1, and its round 2 takes 0.98-1.0 s to
# build and search on a 2-vCPU VM, well past the scrape; eps:3:4's
# takes 0.76-0.84 s)
"$IIS" solve eps:3:3 --max-rounds 2 --serve 127.0.0.1:0 >/dev/null 2>"$serve_log" &
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
# to come from the store ("cached": true) with a byte-identical witness;
# a third ask must repeat the second reply byte for byte from the memo of
# verified records (serve_cache_hits_total 2, cache_answer_hits_total 1);
# ask eps:1:9 (the same input shape with other labels) twice and eps:1:3
# once more, requiring hits with byte-identical witnesses and an unmoved
# cache_tower_builds_total across the warm asks; probe /healthz and
# /readyz; ask an inline-task question ({"task": …}, the committed
# eps:1:3 fixture) twice with the same requirements; require
# serve_jobs_active 0 once the asks are answered (a cold ask is solved on
# the thread that read it, and must give its solve slot back); accept an
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
# the distance pass's counter is registered (at zero) before any question
scrape /metrics | grep -qx 'solve_distance_refuted_total 0' \
  || { echo "solve service smoke: /metrics lacks solve_distance_refuted_total 0"; exit 1; }
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
# a third ask is answered from the service's memo of verified records:
# the reply is byte-identical to the second's, and the memo counts it
reask=$(post /solve "$body")
[ "$reask" = "$second" ] \
  || { echo "solve service smoke: re-ask differs from the second reply"; echo "$second"; echo "$reask"; exit 1; }
metrics=$(scrape /metrics)
hits=$(echo "$metrics" | sed -n 's/^serve_cache_hits_total //p')
[ "$hits" = "2" ] \
  || { echo "solve service smoke: expected serve_cache_hits_total 2, got '$hits'"; exit 1; }
answer_hits=$(echo "$metrics" | sed -n 's/^cache_answer_hits_total //p')
[ "$answer_hits" = "1" ] \
  || { echo "solve service smoke: expected cache_answer_hits_total 1, got '$answer_hits'"; exit 1; }
# shape sharing: eps:1:9 has eps:1:3's input shape with other labels, so
# its cold solve finds the lower levels eps:1:3's solve memoized; the warm
# asks of both then check their witnesses on memoized skeletons — each
# second reply is a byte-identical hit and no tower is built meanwhile
body9='{"spec": "eps:1:9", "max_rounds": 2}'
first9=$(post /solve "$body9")
echo "$first9" | grep -q '"cached":false' \
  || { echo "solve service smoke: first eps:1:9 reply should be a miss"; echo "$first9"; exit 1; }
builds_of() { echo "$1" | sed -n 's/^cache_tower_builds_total //p'; }
builds=$(builds_of "$(scrape /metrics)")
[ -n "$builds" ] || { echo "solve service smoke: /metrics lacks cache_tower_builds_total"; exit 1; }
second9=$(post /solve "$body9")
third=$(post /solve "$body")
for reply in "$second9" "$third"; do
  echo "$reply" | grep -q '"cached":true' \
    || { echo "solve service smoke: warm shared-shape reply should be a store hit"; echo "$reply"; exit 1; }
done
wit1=$(printf '%s' "$first9" | sed 's/.*"witness"://')
wit2=$(printf '%s' "$second9" | sed 's/.*"witness"://')
[ -n "$wit1" ] && [ "$wit1" = "$wit2" ] \
  || { echo "solve service smoke: eps:1:9 witnesses differ"; echo "$wit1"; echo "$wit2"; exit 1; }
wit3=$(printf '%s' "$third" | sed 's/.*"witness"://')
[ "$wit3" = "$(printf '%s' "$first" | sed 's/.*"witness"://')" ] \
  || { echo "solve service smoke: eps:1:3 witness changed"; echo "$wit3"; exit 1; }
warm_builds=$(builds_of "$(scrape /metrics)")
[ "$warm_builds" = "$builds" ] \
  || { echo "solve service smoke: warm asks built towers ($builds -> $warm_builds)"; exit 1; }
# the store's corruption counters are registered (at zero) from the start
echo "$metrics" | grep -q '^store_checksum_failures_total ' \
  || { echo "solve service smoke: /metrics lacks store_checksum_failures_total"; echo "$metrics"; exit 1; }
# a certified refutation answers exactly and fast, is stored, and a re-ask
# is a byte-identical hit; solve_certified_total counts it (from zero)
echo "$metrics" | grep -qx 'solve_certified_total 0' \
  || { echo "solve service smoke: /metrics lacks solve_certified_total 0"; echo "$metrics"; exit 1; }
bodyK='{"spec": "kset:4:3", "max_rounds": 1}'
firstK=$(post /solve "$bodyK")
echo "$firstK" | grep -q '"cached":false.*"result":{"results":\[\[0,false\],\[1,false\]\],"task":"(5,3)-set-consensus","witness":null}' \
  || { echo "solve service smoke: kset:4:3 is not refuted exactly"; echo "$firstK"; exit 1; }
secondK=$(post /solve "$bodyK")
[ "$(printf '%s' "$secondK" | sed 's/.*"result"://')" = "$(printf '%s' "$firstK" | sed 's/.*"result"://')" ] \
  && echo "$secondK" | grep -q '"cached":true' \
  || { echo "solve service smoke: kset:4:3 re-ask is not an identical hit"; echo "$secondK"; exit 1; }
scrape /metrics | grep -qx 'solve_certified_total 1' \
  || { echo "solve service smoke: expected solve_certified_total 1"; exit 1; }
# liveness and readiness answer while serving
scrape /healthz | grep -q '"ok": true' \
  || { echo "solve service smoke: /healthz not ok"; exit 1; }
scrape /readyz | grep -q '"ready":true' \
  || { echo "solve service smoke: /readyz not ready"; exit 1; }
# an inline task, at a round bound the spec questions above did not use
inline_task=$(cat crates/cli/tests/golden/inline_task_eps_1_3.json)
body="{\"task\": $inline_task, \"max_rounds\": 1}"
first=$(post /solve "$body")
echo "$first" | grep -q '"cached":false' \
  || { echo "solve service smoke: first inline reply should be a miss"; echo "$first"; exit 1; }
second=$(post /solve "$body")
echo "$second" | grep -q '"cached":true' \
  || { echo "solve service smoke: second inline reply should be a store hit"; echo "$second"; exit 1; }
wit1=$(printf '%s' "$first"  | sed 's/.*"witness"://')
wit2=$(printf '%s' "$second" | sed 's/.*"witness"://')
[ -n "$wit1" ] && [ "$wit1" = "$wit2" ] \
  || { echo "solve service smoke: inline witnesses differ"; echo "$wit1"; echo "$wit2"; exit 1; }
# the same task pretty-printed with its members reordered: one content
# address, so a store hit with the same key and byte-identical result
reordered=$(cat crates/cli/tests/golden/inline_task_eps_1_3.reordered.json)
third=$(post /solve "{\"task\": $reordered, \"max_rounds\": 1}")
echo "$third" | grep -q '"cached":true' \
  || { echo "solve service smoke: reordered inline task should be a store hit"; echo "$third"; exit 1; }
key_of() { printf '%s' "$1" | sed -n 's/.*"key":"\([0-9a-f]*\)".*/\1/p'; }
result_of() { printf '%s' "$1" | sed 's/.*"result"://'; }
[ -n "$(key_of "$first")" ] && [ "$(key_of "$third")" = "$(key_of "$first")" ] \
  || { echo "solve service smoke: reordered inline task has another key"; echo "$first"; echo "$third"; exit 1; }
[ "$(result_of "$third")" = "$(result_of "$first")" ] \
  || { echo "solve service smoke: reordered inline task has another result"; echo "$first"; echo "$third"; exit 1; }
# every waited cold ask above was solved by the thread that read it, and
# each gave its solve slot back
scrape /metrics | grep -qx 'serve_jobs_active 0' \
  || { echo "solve service smoke: expected serve_jobs_active 0"; scrape /metrics | grep jobs_active; exit 1; }
# drain path: accept an async job, then shut down while it may be running
accepted=$(post /solve '{"spec": "trivial:2", "max_rounds": 1, "wait": false}')
echo "$accepted" | grep -q '"job":' \
  || { echo "solve service smoke: async solve not accepted"; echo "$accepted"; exit 1; }
post /shutdown '' >/dev/null
wait "$serve_pid" || { echo "solve service smoke: serve exited nonzero"; cat "$serve_log"; exit 1; }
grep -q '5 jobs accepted, 5 completed' "$serve_out" \
  || { echo "solve service smoke: drain did not finish the accepted job"; cat "$serve_out"; exit 1; }
rm -rf "$serve_log" "$serve_out" "$store_dir"
echo "solve service smoke: ok"

# Deep-search smoke: eps:3:3 is solvable at b = 2 on a 15 048-vertex
# tower, a descent as deep as that tower. The search keeps its open nodes
# on the heap, so it runs on any thread's stack: `iis solve` runs it on
# the main thread, and the service on the connection thread that reads
# the question (it solves a waited cold question itself), a spawned
# thread with a default stack. Both must answer, and the service must
# live on and drain.
out=$(timeout 30 "$IIS" solve eps:3:3 --max-rounds 2) \
  || { echo "deep search smoke: solve failed or ran past 30 s"; echo "$out"; exit 1; }
echo "$out" | grep -q '^b = 2: SOLVABLE' \
  || { echo "deep search smoke: solve did not answer b = 2"; echo "$out"; exit 1; }
serve_log=$(mktemp)
"$IIS" serve --addr 127.0.0.1:0 >/dev/null 2>"$serve_log" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's#^serving on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' "$serve_log")
  [ -n "$port" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { echo "deep search smoke: serve died early"; cat "$serve_log"; exit 1; }
  sleep 0.05
done
[ -n "$port" ] || { echo "deep search smoke: no port announced"; cat "$serve_log"; exit 1; }
status_line() { # status_line METHOD PATH BODY -> the response's status line
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf '%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "$1" "$2" "${#3}" "$3" >&3
  head -1 <&3
  exec 3>&- 3<&-
}
status_line POST /solve '{"spec":"eps:3:3","max_rounds":2}' | grep -q '^HTTP/1.1 200' \
  || { echo "deep search smoke: serve did not answer eps:3:3 at b = 2 with 200"; cat "$serve_log"; exit 1; }
status_line GET /healthz '' | grep -q '^HTTP/1.1 200' \
  || { echo "deep search smoke: /healthz after the deep solve is not 200"; cat "$serve_log"; exit 1; }
post /shutdown '' >/dev/null
wait "$serve_pid" || { echo "deep search smoke: serve exited nonzero"; cat "$serve_log"; exit 1; }
rm -f "$serve_log"
echo "deep search smoke: ok"

# Interner smoke: a fresh `iis serve` asked 80 distinct specs (eps:0:2 …
# eps:0:81, more than the skeleton memo's 64 entries) in one batch, then
# the same batch again. The second pass must build no task
# (cache_spec_builds_total unmoved: every served task stays interned) and
# answer with byte-identical records.
serve_log=$(mktemp)
"$IIS" serve --addr 127.0.0.1:0 >/dev/null 2>"$serve_log" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's#^serving on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' "$serve_log")
  [ -n "$port" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { echo "interner smoke: serve died early"; cat "$serve_log"; exit 1; }
  sleep 0.05
done
[ -n "$port" ] || { echo "interner smoke: no port announced"; cat "$serve_log"; exit 1; }
qs=""
for k in $(seq 2 81); do qs="$qs{\"spec\": \"eps:0:$k\", \"max_rounds\": 1},"; done
batch="{\"questions\": [${qs%,}]}"
first=$(post /solve "$batch")
[ "$(echo "$first" | grep -o '"status":200' | wc -l)" -eq 80 ] \
  || { echo "interner smoke: first pass did not answer all 80 questions"; echo "$first"; exit 1; }
builds=$(scrape /metrics | sed -n 's/^cache_spec_builds_total //p')
second=$(post /solve "$batch")
[ "$(echo "$second" | grep -o '"cached":true' | wc -l)" -eq 80 ] \
  || { echo "interner smoke: second pass was not all store hits"; echo "$second"; exit 1; }
unflagged() { sed -E 's/"cached":(true|false)/"cached":_/g; s/"job":[0-9]+,//g'; }
[ "$(echo "$first" | unflagged)" = "$(echo "$second" | unflagged)" ] \
  || { echo "interner smoke: second-pass records differ from the first"; exit 1; }
warm_builds=$(scrape /metrics | sed -n 's/^cache_spec_builds_total //p')
[ -n "$builds" ] && [ "$warm_builds" = "$builds" ] \
  || { echo "interner smoke: the second pass rebuilt tasks ($builds -> $warm_builds)"; exit 1; }
post /shutdown '' >/dev/null
wait "$serve_pid" || { echo "interner smoke: serve exited nonzero"; cat "$serve_log"; exit 1; }
rm -f "$serve_log"
echo "interner smoke: ok"

# Gateway fuzz sweep: routing soundness under injected transport faults —
# no question answered wrongly or misaligned, only late or 503.
"$IIS" fuzz --layer gateway --seed 7 --cases 300 --shrink

# Gateway smoke: two shards behind `iis gateway`. First, task affinity:
# eps:1:9 asked at max_rounds 1–4 must build its task on exactly one
# shard, exactly once (the gateway routes by task, not by question). Then
# a 13-question batch (12 library specs and the inline eps:1:3 fixture) is
# scattered, coalesced, and gathered; then a shard that answered part of
# that batch is killed and the same batch must come back with every
# answer byte-identical (purity makes any replica's answer THE answer)
# and gateway_failovers_total >= 1. The prober interval is set far out so
# the dead shard is discovered on the request path — the failover being
# tested, not the health prober.
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
counter_of() { # counter_of PORT NAME -> the shard's own series value
  req "$1" GET /metrics '' | sed -n "s/^$2 //p"
}
# task affinity: every bound of one task lands on one shard
buildsA=$(counter_of "$portA" cache_spec_builds_total)
buildsB=$(counter_of "$portB" cache_spec_builds_total)
for b in 1 2 3 4; do
  req "$portG" POST /solve "{\"spec\": \"eps:1:9\", \"max_rounds\": $b}" | grep -q '"result":' \
    || { echo "gateway smoke: eps:1:9 at max_rounds $b was not answered"; exit 1; }
done
movedA=$(( $(counter_of "$portA" cache_spec_builds_total) - buildsA ))
movedB=$(( $(counter_of "$portB" cache_spec_builds_total) - buildsB ))
[ $(( movedA + movedB )) -eq 1 ] \
  || { echo "gateway smoke: eps:1:9 at four bounds built its task $movedA+$movedB times (want one shard, once)"; exit 1; }
echo "gateway smoke: four bounds of eps:1:9 built their task once, on one shard"
# an exhausted budget answers the question, not a shard fault: a 422 the
# gateway relays, with every shard still ready
status_of() { # status_of PORT BODY -> the status line of POST /solve
  exec 3<>"/dev/tcp/127.0.0.1/$1"
  printf 'POST /solve HTTP/1.1\r\nHost: localhost\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "${#2}" "$2" >&3
  head -1 <&3
  exec 3>&- 3<&-
}
over='{"spec": "eps:2:3", "max_rounds": 2, "budget": 50}'
status_of "$portG" "$over" | grep -q '^HTTP/1.1 422' \
  || { echo "gateway smoke: an exhausted budget did not answer 422"; status_of "$portG" "$over"; exit 1; }
[ "$(req "$portG" GET /cluster '' | grep -c '"health": "ready"')" -eq 2 ] \
  || { echo "gateway smoke: an inconclusive answer marked a shard unhealthy"; req "$portG" GET /cluster ''; exit 1; }
qs=""
for s in trivial:1 trivial:2 eps:1:3 eps:1:5 eps:1:9 oneshot:1; do
  for b in 1 2; do qs="$qs{\"spec\": \"$s\", \"max_rounds\": $b},"; done
done
qs="$qs{\"task\": $(cat crates/cli/tests/golden/inline_task_eps_1_3.json), \"max_rounds\": 2}"
batch="{\"questions\": [$qs]}"
# warm both shards, then take the all-cached envelope as the baseline
req "$portG" POST /solve "$batch" >/dev/null
reqsA=$(counter_of "$portA" serve_requests_total)
reqsB=$(counter_of "$portB" serve_requests_total)
baseline=$(req "$portG" POST /solve "$batch")
echo "$baseline" | grep -q '"cached":false' \
  && { echo "gateway smoke: baseline batch not fully cached"; echo "$baseline"; exit 1; }
echo "$baseline" | grep -q '"answers":' \
  || { echo "gateway smoke: baseline is not a batch envelope"; echo "$baseline"; exit 1; }
# the victim is a shard the baseline batch reached (its own
# serve_requests_total moved by more than the second scrape itself):
# under task routing all six tasks may share one shard
reqsB=$(( $(counter_of "$portB" serve_requests_total) - reqsB ))
reqsA=$(( $(counter_of "$portA" serve_requests_total) - reqsA ))
if [ "$reqsB" -gt 1 ]; then
  victim=B; portV=$portB; pidV=$pidB; logV=$sB_log; portS=$portA; pidS=$pidA; logS=$sA_log
elif [ "$reqsA" -gt 1 ]; then
  victim=A; portV=$portA; pidV=$pidA; logV=$sA_log; portS=$portB; pidS=$pidB; logS=$sB_log
else
  echo "gateway smoke: the baseline batch reached neither shard"; exit 1
fi
# kill that shard mid-run; the gateway has not probed, so the next batch
# discovers the death on the request path and fails over
req "$portV" POST /shutdown '' >/dev/null
wait "$pidV" || { echo "gateway smoke: shard $victim exited nonzero"; cat "$logV"; exit 1; }
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
req "$portS" POST /shutdown '' >/dev/null
wait "$pidS" || { echo "gateway smoke: surviving shard exited nonzero"; cat "$logS"; exit 1; }
rm -f "$sA_log" "$sB_log" "$gw_log" "$gw_out"
echo "gateway smoke: ok"
