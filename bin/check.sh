#!/bin/sh
# Repo check: format (when ocamlformat is available), build, tests, lint,
# the smoke pass over every experiment, the E16 replay check, and the
# gates over the committed BENCH_trace.json (DESIGN.md §observability),
# BENCH_topology.json (DESIGN.md §scale engine),
# BENCH_survivability.json (DESIGN.md §survivability gauntlet),
# BENCH_accounting.json (DESIGN.md §accounting-at-scale),
# BENCH_names.json (DESIGN.md §name/service layer) and
# BENCH_tcp_adversary.json (DESIGN.md §transport hardening).
# Usage: bin/check.sh  (or `make check`)
set -eu
cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== fmt skipped (ocamlformat not installed or no .ocamlformat)"
fi

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== catenet-lint"
make --no-print-directory lint

echo "== bench smoke"
dune exec bench/main.exe -- --smoke --out=_smoke >/dev/null

# Replay determinism (the E16 contract at PR time, backed by the
# catenet-lint determinism pass): the same seed must produce the same
# fault schedule and the same packet-level run digest in two separate
# processes.  Any ambient input that slipped past the lint — wall
# clock, hash-table iteration order, an unseeded RNG — shows up here
# as a digest mismatch.
echo "== replay determinism (E16 smoke x2)"
rm -rf _replay1 _replay2
dune exec bench/main.exe -- --smoke --only E16 --out=_replay1 >/dev/null
dune exec bench/main.exe -- --smoke --only E16 --out=_replay2 >/dev/null
digests() {
  grep -o '"schedule_digest": "[^"]*"' "$1/BENCH_survivability.json"
  grep -o '"run_digest": "[^"]*"' "$1/BENCH_survivability.json"
}
d1=$(digests _replay1)
d2=$(digests _replay2)
[ -n "$d1" ] || { echo "FAIL: no digests in _replay1/BENCH_survivability.json"; exit 1; }
if [ "$d1" = "$d2" ]; then
  echo "  digests identical across processes"
else
  echo "FAIL: replay digests differ between identical runs"
  echo "  run 1: $d1"
  echo "  run 2: $d2"
  exit 1
fi
# Cross-commit replay: the digests must also equal the values measured
# at commit f072765, so a change that reorders events (a new event
# queue, say) cannot pass by being merely self-consistent.  Update the
# pin only with a deliberate change to simulation semantics, and record
# the change and the new values in CHANGES.md.
pinned='"schedule_digest": "984d729c612dd3ded3035c6e10757e28"
"run_digest": "4eefe2cefcb689316ca2eaaee3e8fbd9"'
if [ "$d1" = "$pinned" ]; then
  echo "  digests equal the pinned values"
else
  echo "FAIL: replay digests differ from the pinned values"
  echo "  pinned: $pinned"
  echo "  got:    $d1"
  exit 1
fi
rm -rf _replay1 _replay2

# The overhead contract: merely carrying the (disabled) tracing
# instrumentation must not slow the E13/E14 fast paths by more than the
# budget.  E15 measures this against the same harness run and records it
# in BENCH_trace.json; gate on the committed artifact so a regression
# cannot be committed silently.  Smoke-run numbers are too noisy to gate
# on, so this checks the full-run artifact at the repo root.
echo "== observability overhead gate (BENCH_trace.json)"
if [ -f BENCH_trace.json ]; then
  awk '
    function num(line,   v) { sub(/.*: */, "", line); sub(/,.*/, "", line); return line + 0 }
    /"regression_budget_pct"/ { budget = num($0) }
    /"e13_regression_pct"/ { if ($0 !~ /null/) { e13 = num($0); have13 = 1 } }
    /"e14_regression_pct"/ { if ($0 !~ /null/) { e14 = num($0); have14 = 1 } }
    END {
      if (budget == 0) budget = 2.0
      bad = 0
      if (have13 && e13 > budget) { printf "FAIL: e13 fast path regressed %.1f%% (> %.1f%%) with tracing disabled\n", e13, budget; bad = 1 }
      if (have14 && e14 > budget) { printf "FAIL: e14 fast path regressed %.1f%% (> %.1f%%) with tracing disabled\n", e14, budget; bad = 1 }
      if (!bad) {
        if (have13) printf "  e13 regression %.1f%% within %.1f%% budget\n", e13, budget
        if (have14) printf "  e14 regression %.1f%% within %.1f%% budget\n", e14, budget
      }
      exit bad
    }' BENCH_trace.json
else
  echo "  skipped (no BENCH_trace.json; run: dune exec bench/main.exe -- --only E13,E14,E15)"
fi

# The scale contract (E17, DESIGN.md §scale engine): a 10^4-host region
# topology must hold its fast-path throughput and allocation rate within
# 20% of E13's 8-node chain, measured in the same process so the ratio
# is machine-independent.  As above, gate on the committed full-run
# artifact, not smoke numbers.
echo "== topology scale gate (BENCH_topology.json)"
if [ -f BENCH_topology.json ]; then
  awk '
    function num(line,   v) { sub(/.*: */, "", line); sub(/,.*/, "", line); return line + 0 }
    /"dps_vs_e13_pct"/ { dps = num($0); have_d = 1 }
    /"words_vs_e13_pct"/ { words = num($0); have_w = 1 }
    /"dps_floor_pct"/ { floor = num($0) }
    /"words_ceiling_pct"/ { ceiling = num($0) }
    END {
      if (floor == 0) floor = 80.0
      if (ceiling == 0) ceiling = 120.0
      bad = 0
      if (!have_d || dps < floor) { printf "FAIL: topology throughput %.1f%% of E13 (floor %.1f%%)\n", dps, floor; bad = 1 }
      if (!have_w || words > ceiling) { printf "FAIL: topology words/packet %.1f%% of E13 (ceiling %.1f%%)\n", words, ceiling; bad = 1 }
      if (!bad) printf "  10^4-host throughput %.1f%% of E13 (floor %.1f%%), words/packet %.1f%% (ceiling %.1f%%)\n", dps, floor, words, ceiling
      exit bad
    }' BENCH_topology.json
else
  echo "  skipped (no BENCH_topology.json; run: dune exec bench/main.exe -- --only E17)"
fi

# The survivability contract (Clark goal 1): every TCP conversation in
# the E16 gauntlet survives flaps, a gateway crash with soft-state
# amnesia, a partition and a seeded flap storm; routing re-converges
# after every fault within budget; and the whole run replays bit for
# bit from its seed.  As with the E15 gate, smoke numbers are not the
# contract — gate on the committed full-run artifact.
echo "== survivability gate (BENCH_survivability.json)"
if [ -f BENCH_survivability.json ]; then
  awk '
    function num(line,   v) { sub(/.*: */, "", line); sub(/,.*/, "", line); return line + 0 }
    /"survival_pct"/ && $0 !~ /required/ { survival = num($0); have_s = 1 }
    /"required_survival_pct"/ { required = num($0) }
    /"worst_reconvergence_s"/ { if ($0 ~ /null/) never = 1; else { worst = num($0); have_w = 1 } }
    /"reconvergence_budget_s"/ { budget = num($0) }
    /"replay_ok"/ { replay_ok = ($0 ~ /true/) }
    END {
      if (required == 0) required = 100.0
      if (budget == 0) budget = 12.0
      bad = 0
      if (!have_s || survival < required) { printf "FAIL: TCP survival %.1f%% below the required %.1f%%\n", survival, required; bad = 1 }
      if (never) { printf "FAIL: some fault never re-converged\n"; bad = 1 }
      else if (!have_w || worst > budget) { printf "FAIL: worst reconvergence %.2fs exceeds the %.1fs budget\n", worst, budget; bad = 1 }
      if (!replay_ok) { printf "FAIL: gauntlet replay diverged (same seed, different run)\n"; bad = 1 }
      if (!bad) printf "  survival %.1f%%, worst reconvergence %.2fs (budget %.1fs), replay bit-for-bit\n", survival, worst, budget
      exit bad
    }' BENCH_survivability.json
else
  echo "  skipped (no BENCH_survivability.json; run: dune exec bench/main.exe -- --only E16)"
fi

# The accounting contract (E20, DESIGN.md §accounting-at-scale): the
# sketch engine must hold fast-path throughput at >=90% of
# accounting-off, estimate the true top-100 flows' bytes within 1%, and
# stay within 10% of the exact ledger's resident memory at >=10^6
# distinct flows.  As above, gate on the committed full-run artifact.
echo "== accounting gate (BENCH_accounting.json)"
if [ -f BENCH_accounting.json ]; then
  awk '
    function num(line,   v) { sub(/.*: */, "", line); sub(/,.*/, "", line); return line + 0 }
    /"dps_vs_off_pct"/ { dps = num($0); have_d = 1 }
    /"top100_byte_error_pct"/ { err = num($0); have_e = 1 }
    /"mem_vs_exact_pct"/ { mem = num($0); have_m = 1 }
    /"distinct_flows"/ { flows = num($0) }
    /"dps_floor_pct"/ { floor = num($0) }
    /"error_ceiling_pct"/ { err_ceiling = num($0) }
    /"mem_ceiling_pct"/ { mem_ceiling = num($0) }
    END {
      if (floor == 0) floor = 90.0
      if (err_ceiling == 0) err_ceiling = 1.0
      if (mem_ceiling == 0) mem_ceiling = 10.0
      bad = 0
      if (!have_d || dps < floor) { printf "FAIL: sketch throughput %.1f%% of accounting-off (floor %.1f%%)\n", dps, floor; bad = 1 }
      if (!have_e || err > err_ceiling) { printf "FAIL: top-100 byte error %.3f%% exceeds the %.1f%% ceiling\n", err, err_ceiling; bad = 1 }
      if (!have_m || mem > mem_ceiling) { printf "FAIL: sketch memory %.1f%% of exact (ceiling %.1f%%)\n", mem, mem_ceiling; bad = 1 }
      if (flows < 1000000) { printf "FAIL: artifact covers only %d distinct flows (need >= 10^6)\n", flows; bad = 1 }
      if (!bad) printf "  sketch %.1f%% of off (floor %.1f%%), top-100 error %.3f%% (ceiling %.1f%%), memory %.1f%% of exact (ceiling %.1f%%) at %d flows\n", dps, floor, err, err_ceiling, mem, mem_ceiling, flows
      exit bad
    }' BENCH_accounting.json
else
  echo "  skipped (no BENCH_accounting.json; run: dune exec bench/main.exe -- --only E20)"
fi

# The name/service contract (E21, DESIGN.md §name/service layer): the
# resolver caches must absorb >=95% of the open-loop lookup storm at
# steady state, p99 resolve latency must stay inside its budget, anycast
# failover must beat the E16 reconvergence budget, and no session may be
# lost outside the declared crash/amnesia windows.  As above, gate on
# the committed full-run artifact, not smoke numbers.
echo "== name/service gate (BENCH_names.json)"
if [ -f BENCH_names.json ]; then
  awk '
    function num(line,   v) { sub(/.*: */, "", line); sub(/,.*/, "", line); return line + 0 }
    /"clients"/ { clients = num($0) }
    /"steady_hit_pct"/ { hit = num($0); have_h = 1 }
    /"hit_floor_pct"/ { floor = num($0) }
    /"p99_resolve_ms"/ { p99 = num($0); have_p = 1 }
    /"p99_budget_ms"/ { p99_budget = num($0) }
    /"failover_s"/ { fo = num($0); have_f = 1 }
    /"failover_budget_s"/ { fo_budget = num($0) }
    /"lost_outside_crash"/ { lost = num($0); have_l = 1 }
    END {
      if (floor == 0) floor = 95.0
      if (p99_budget == 0) p99_budget = 20.0
      if (fo_budget == 0) fo_budget = 12.0
      bad = 0
      if (clients < 100000) { printf "FAIL: artifact covers only %d clients (need >= 10^5)\n", clients; bad = 1 }
      if (!have_h || hit < floor) { printf "FAIL: steady-state cache hit %.2f%% below the %.1f%% floor\n", hit, floor; bad = 1 }
      if (!have_p || p99 > p99_budget) { printf "FAIL: p99 resolve latency %.2fms exceeds the %.1fms budget\n", p99, p99_budget; bad = 1 }
      if (!have_f || fo < 0 || fo > fo_budget) { printf "FAIL: anycast failover %.2fs outside the %.1fs budget\n", fo, fo_budget; bad = 1 }
      if (!have_l || lost != 0) { printf "FAIL: %d sessions lost outside the crash windows\n", lost; bad = 1 }
      if (!bad) printf "  %d clients: cache hit %.2f%% (floor %.1f%%), p99 resolve %.2fms (budget %.1fms), failover %.2fs (budget %.1fs), zero loss outside windows\n", clients, hit, floor, p99, p99_budget, fo, fo_budget
      exit bad
    }' BENCH_names.json
else
  echo "  skipped (no BENCH_names.json; run: dune exec bench/main.exe -- --only E21)"
fi

# The hardening contract (E18, DESIGN.md §transport hardening): >=10^4
# forged in-window segments must kill zero connections while goodput
# holds at >=90% of the unattacked run with the fast path byte-identical
# to the slow path, and window scaling must carry the LFN window past
# 64 KiB for a real speedup.  As above, gate on the committed full-run
# artifact, not smoke numbers.
echo "== adversary gate (BENCH_tcp_adversary.json)"
if [ -f BENCH_tcp_adversary.json ]; then
  awk '
    function num(line,   v) { sub(/.*: */, "", line); sub(/,.*/, "", line); return line + 0 }
    /"hostile_segments"/ { hostile = num($0) }
    /"hostile_floor"/ { hostile_floor = num($0) }
    /"kills"/ { kills = num($0); have_k = 1 }
    /"goodput_attacked_pct"/ { goodput = num($0); have_g = 1 }
    /"goodput_floor_pct"/ { goodput_floor = num($0) }
    /"fast_slow_identical"/ { agree = num($0); have_a = 1 }
    /"wscale_shift"/ { shift = num($0); have_w = 1 }
    /"peak_window"/ && $0 !~ /unscaled/ { peak = num($0) }
    /"speedup"/ { speedup = num($0); have_s = 1 }
    END {
      if (hostile_floor == 0) hostile_floor = 10000
      if (goodput_floor == 0) goodput_floor = 90.0
      bad = 0
      if (hostile < hostile_floor) { printf "FAIL: only %d hostile segments injected (need >= %d)\n", hostile, hostile_floor; bad = 1 }
      if (!have_k || kills != 0) { printf "FAIL: %d connections killed by forged segments\n", kills; bad = 1 }
      if (!have_g || goodput < goodput_floor) { printf "FAIL: goodput under attack %.1f%% below the %.1f%% floor\n", goodput, goodput_floor; bad = 1 }
      if (!have_a || agree != 1) { printf "FAIL: fast path diverged from slow path under attack\n"; bad = 1 }
      if (!have_w || shift < 2) { printf "FAIL: LFN wscale shift %d (need >= 2)\n", shift; bad = 1 }
      if (peak <= 65535) { printf "FAIL: LFN peak window %d never exceeded 64 KiB\n", peak; bad = 1 }
      if (!have_s || speedup <= 1.0) { printf "FAIL: window scaling speedup %.2fx (need > 1)\n", speedup; bad = 1 }
      if (!bad) printf "  %d forgeries, %d kills, goodput %.1f%% (floor %.1f%%), fast=slow, wscale shift %d, peak window %d, LFN speedup %.2fx\n", hostile, kills, goodput, goodput_floor, shift, peak, speedup
      exit bad
    }' BENCH_tcp_adversary.json
else
  echo "  skipped (no BENCH_tcp_adversary.json; run: dune exec bench/main.exe -- --only E18)"
fi

echo "check: OK"
