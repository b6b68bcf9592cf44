#!/bin/sh
# End-to-end check of `serve-batch --stats-json`, run by CI and the
# stats_json_check ctest entry: drives the paper's Fig. 1 example through
# the service and validates the exported snapshot with python3 —
#   1. the file parses as JSON;
#   2. the counters reconcile: received == completed + bad_requests,
#      cache_hits + cache_misses == completed, histogram counts sum to
#      completed, per-class bucket counts sum to the class count;
#   3. percentiles are ordered (min <= p50 <= p95 <= p99 <= max);
#   4. per-stage time totals (queue+parse+prepare+search) sum to the
#      latency total within 5% (or a 0.5ms absolute epsilon for the
#      sub-millisecond latencies of the toy example).
# A second phase covers the daemon's periodic `serve --stats-json` dump:
# it must appear within a few periods even with no traffic, carry the
# server + per-graph service blocks, and — because the writer renames a
# temp file into place — every concurrent read must parse cleanly.
# A third phase drives a {"op":"update"} batch through the daemon and
# validates the update counters reconcile: graph_generation equals
# updates_applied (text-loaded graphs start at generation 0),
# cache_invalidated never exceeds cache_misses (only built entries can be
# dropped), and the server's `updates` counter matches.
# A fourth phase runs serve-batch against a persistent plan store, twice:
# every prepare attempt must probe the store (plan_store_hits +
# plan_store_misses == cache_misses in both runs), the cold run must
# persist without hitting (the memory cache absorbs repeats, so no probe
# can land on a plan the same run wrote moments earlier), and the
# restarted run (--cache=0: every request probes) must serve every
# request from the store.
# Usage: check_stats_json.sh PATH_TO_WHYQ_CLI [WORKDIR]
set -u

cli="${1:?usage: check_stats_json.sh PATH_TO_WHYQ_CLI [WORKDIR]}"
cd "${2:-.}" || exit 1

if ! command -v python3 >/dev/null 2>&1; then
  echo "check_stats_json: python3 not found, skipping" >&2
  exit 0
fi

ids=$("$cli" figure1 --out=sj_f1 | sed -n 's/^ids: //p')
[ -n "$ids" ] || { echo "check_stats_json: figure1 printed no ids" >&2; exit 1; }
# The line is "a5=N s5=N s8=N s9=N" — our own output, safe to eval.
eval "$ids"

cat > sj_f1.questions <<EOF
# Fig. 1 questions: Why {a5,s5}, Why-not {s8,s9}, plus the extensions.
why sj_f1.query $a5,$s5
whynot sj_f1.query $s8,$s9
whyempty sj_f1.query
whysomany sj_f1.query 1
why sj_f1.query $a5,$s5
whynot sj_f1.query $s8,$s9
EOF

"$cli" serve-batch sj_f1.graph sj_f1.questions --workers=2 \
  --slow-ms=0.001 --stats-json=sj_f1.stats.json > /dev/null ||
  { echo "check_stats_json: serve-batch failed" >&2; exit 1; }

python3 - <<'EOF'
import json, sys

d = json.load(open("sj_f1.stats.json"))
c = d["counters"]

def check(cond, msg):
    if not cond:
        print("check_stats_json: FAIL:", msg, file=sys.stderr)
        sys.exit(1)

check(c["received"] == c["completed"] + c["bad_requests"],
      f"received {c['received']} != completed {c['completed']} + bad {c['bad_requests']}")
check(c["cache_hits"] + c["cache_misses"] == c["completed"],
      f"hits {c['cache_hits']} + misses {c['cache_misses']} != completed {c['completed']}")
check(c["rejected"] == 0 and c["shutdown"] == 0,
      "unexpected rejected/shutdown on an uncontended batch")
check(c["completed"] == 6, f"expected 6 completed, got {c['completed']}")
# No updates ran in this batch: the epoch counters must sit at zero and
# still reconcile (generation == applied for text-loaded graphs).
for key in ("updates_applied", "graph_generation", "cache_invalidated",
            "cache_rekeyed", "plan_store_hits", "plan_store_misses",
            "plan_store_writes", "plan_store_evictions",
            "plan_store_invalid"):
    check(key in c, f"counters missing {key}")
# No plan store was configured: every store counter must sit at zero.
check(c["plan_store_hits"] + c["plan_store_misses"]
      + c["plan_store_writes"] == 0,
      "plan-store counters moved without a store configured")
check(c["graph_generation"] == c["updates_applied"],
      f"generation {c['graph_generation']} != applied {c['updates_applied']}")
check(c["cache_invalidated"] <= c["cache_misses"],
      f"invalidated {c['cache_invalidated']} > misses {c['cache_misses']}")

hist_total = 0
for klass, h in d["latency_ms"].items():
    hist_total += h["count"]
    check(h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["max"] + 1e-9,
          f"{klass}: percentiles out of order: {h}")
    check(sum(b[1] for b in h["buckets"]) == h["count"],
          f"{klass}: bucket counts do not sum to count")
check(hist_total == c["completed"],
      f"histogram counts {hist_total} != completed {c['completed']}")

w = d["work"]
for key in ("ctx_hits", "ctx_misses", "ctx_delta_builds", "ctx_pruned",
            "ctx_literal_scans", "ctx_literal_hits"):
    check(key in w, f"work totals missing {key}")
# Every cache-missing iso request builds at least one candidate set (the
# prepare stage seeds the output node's set as a miss).
check(w["ctx_misses"] >= 1, f"expected ctx_misses >= 1, got {w['ctx_misses']}")

st = d["stage_totals_ms"]
stages = st["queue"] + st["parse"] + st["prepare"] + st["search"]
check(abs(stages - st["latency"]) <= max(0.05 * st["latency"], 0.5),
      f"stage sum {stages} vs latency {st['latency']} beyond tolerance")
check(st["candidates"] + st["answer_match"] + st["path_index"]
      <= st["prepare"] + 0.5, "prepare sub-stages exceed prepare total")

slow = d["slow_queries"]
check(slow["threshold_ms"] > 0, "slow-query threshold missing")
check(len(slow["entries"]) >= 1, "no slow-query entries retained")
for e in slow["entries"]:
    check(e["latency_ms"] >= slow["threshold_ms"],
          f"slow entry below threshold: {e}")

print("check_stats_json: OK (counters reconcile, percentiles ordered, "
      f"stage sum {stages:.3f}ms ~ latency {st['latency']:.3f}ms)")
EOF
[ $? -eq 0 ] || exit 1

# --- phase 2: the daemon's periodic dump --------------------------------
rm -f sj_f1.daemon.json sj_f1.daemon.log
"$cli" serve sj_f1.graph --workers=1 --stats-json=sj_f1.daemon.json \
  --stats-period-ms=50 > sj_f1.daemon.log 2>&1 &
pid=$!

# The first dump must land within a few periods, with no client traffic.
found=""
for _ in $(seq 1 100); do
  [ -f sj_f1.daemon.json ] && { found=1; break; }
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
[ -n "$found" ] || {
  echo "check_stats_json: daemon wrote no periodic dump; log:" >&2
  cat sj_f1.daemon.log >&2
  kill "$pid" 2>/dev/null
  exit 1
}

# Atomic rename: reads racing the periodic writer must never observe a
# torn file. Sample it repeatedly across several write periods.
python3 - <<'EOF'
import json, sys, time

for attempt in range(20):
    try:
        d = json.load(open("sj_f1.daemon.json"))
    except Exception as e:  # noqa: BLE001 - a torn read is the finding
        print(f"check_stats_json: FAIL: torn/unparsable daemon dump on "
              f"read {attempt}: {e}", file=sys.stderr)
        sys.exit(1)
    time.sleep(0.02)

srv = d.get("server", {})
for key in ("accepted", "refused", "closed", "idle_closed", "requests",
            "responded", "admitted", "rejected", "bad_lines", "updates",
            "drained"):
    if key not in srv:
        print(f"check_stats_json: FAIL: daemon dump server block missing "
              f"'{key}'", file=sys.stderr)
        sys.exit(1)
svc = d.get("service", {})
if "sj_f1" not in svc or "counters" not in svc["sj_f1"]:
    print("check_stats_json: FAIL: daemon dump has no per-graph service "
          f"block: {sorted(d)}", file=sys.stderr)
    sys.exit(1)
print("check_stats_json: OK (daemon dump present, atomic, well-formed)")
EOF
rc=$?
if [ "$rc" -ne 0 ]; then
  kill -TERM "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  exit 1
fi

# --- phase 3: updates over the wire reconcile in the dump ----------------
python3 - "$a5" "$s5" <<'EOF'
import json, re, socket, sys, time

a5, s5 = int(sys.argv[1]), int(sys.argv[2])
log = open("sj_f1.daemon.log").read()
m = re.search(r"listening on 127\.0\.0\.1:(\d+)", log)
if not m:
    print("check_stats_json: FAIL: no listening line in daemon log",
          file=sys.stderr)
    sys.exit(1)

def fail(msg):
    print("check_stats_json: FAIL:", msg, file=sys.stderr)
    sys.exit(1)

s = socket.create_connection(("127.0.0.1", int(m.group(1))), timeout=10)
f = s.makefile("rw")

def ask(req):
    f.write(json.dumps(req) + "\n")
    f.flush()
    return json.loads(f.readline())

# Populate the prepared-query cache, then mutate the graph.
query = open("sj_f1.query").read()
r = ask({"id": 1, "question": "why", "query": query,
         "entities": [a5, s5], "guard": 0})
if r.get("status") != "ok":
    fail(f"why over the wire failed: {r}")
r = ask({"id": 2, "op": "update", "graph": "sj_f1", "ops": ["AN Paper"]})
if r.get("status") != "ok" or r.get("generation") != 1:
    fail(f"update not applied: {r}")
if r.get("applied", {}).get("nodes_added") != 1:
    fail(f"wrong applied delta: {r}")
# A batch that fails validation changes nothing and reports its type.
r = ask({"id": 3, "op": "update", "ops": ["DN 999999"]})
if r.get("status") != "bad_request" or r.get("update_status") != "no-such-node":
    fail(f"invalid update not rejected cleanly: {r}")

# The next periodic dump must reconcile the new counters.
deadline = time.time() + 10
while True:
    d = json.load(open("sj_f1.daemon.json"))
    srv = d.get("server", {})
    c = d.get("service", {}).get("sj_f1", {}).get("counters", {})
    if srv.get("updates") == 1 and c.get("updates_applied") == 1:
        break
    if time.time() > deadline:
        fail(f"dump never reflected the update: server={srv} counters={c}")
    time.sleep(0.05)
if c["graph_generation"] != c["updates_applied"]:
    fail(f"generation {c['graph_generation']} != applied "
         f"{c['updates_applied']}")
if c["cache_invalidated"] > c["cache_misses"]:
    fail(f"invalidated {c['cache_invalidated']} > misses "
         f"{c['cache_misses']}")
if c["cache_invalidated"] + c["cache_rekeyed"] == 0:
    fail("update ran against a populated cache but touched no entry")
print("check_stats_json: OK (wire update applied; epoch counters "
      "reconcile: generation == applied, invalidated <= misses)")
EOF
rc=$?
kill -TERM "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
[ "$rc" -eq 0 ] || exit 1

# --- phase 4: plan-store counters reconcile on a live run ----------------
rm -rf sj_f1.plans
# Cold run: default memory cache. Repeated questions hit the cache and
# never probe the store, so plan_store_hits == 0 deterministically —
# with --cache=0 here, a repeat could legitimately hit a plan the
# background writer flushed earlier in the same run.
"$cli" serve-batch sj_f1.graph sj_f1.questions --workers=2 \
  --plan-store=sj_f1.plans --stats-json=sj_f1.plan1.json > /dev/null ||
  { echo "check_stats_json: serve-batch (cold plan store) failed" >&2
    exit 1; }
# Restarted run: --cache=0 so every request is a prepare attempt that
# probes the now-warm store.
"$cli" serve-batch sj_f1.graph sj_f1.questions --workers=2 --cache=0 \
  --plan-store=sj_f1.plans --stats-json=sj_f1.plan2.json > /dev/null ||
  { echo "check_stats_json: serve-batch (warm plan store) failed" >&2
    exit 1; }

python3 - <<'EOF'
import json, sys

def check(cond, msg):
    if not cond:
        print("check_stats_json: FAIL:", msg, file=sys.stderr)
        sys.exit(1)

r1 = json.load(open("sj_f1.plan1.json"))["counters"]
r2 = json.load(open("sj_f1.plan2.json"))["counters"]
# Every prepare attempt (== cache miss) probes the store exactly once,
# hit or miss.
for name, c in (("cold", r1), ("warm", r2)):
    check(c["plan_store_hits"] + c["plan_store_misses"]
          == c["cache_misses"],
          f"{name} run: store hits {c['plan_store_hits']} + misses "
          f"{c['plan_store_misses']} != prepare attempts "
          f"{c['cache_misses']}")
check(r1["plan_store_hits"] == 0,
      f"cold run hit an empty store: {r1['plan_store_hits']}")
check(r1["plan_store_writes"] >= 1,
      f"cold run persisted nothing: writes={r1['plan_store_writes']}")
check(r2["plan_store_hits"] >= 1,
      f"restarted run never hit the store: {r2['plan_store_hits']}")
check(r2["plan_store_misses"] == 0,
      f"restarted run missed a warm store: {r2['plan_store_misses']}")
check(r2["plan_store_invalid"] == 0,
      f"restarted run rejected plans: {r2['plan_store_invalid']}")
print("check_stats_json: OK (plan-store probes reconcile: "
      f"cold misses={r1['plan_store_misses']} writes="
      f"{r1['plan_store_writes']}; warm hits={r2['plan_store_hits']})")
EOF
[ $? -eq 0 ] || exit 1
exit 0
