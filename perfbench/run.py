#!/usr/bin/env python3
"""Catenet benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload forward --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

Builds perfbench/catbench.exe from source, then runs trials of one
workload, each in a fresh process, until --seconds have passed.  Every
trial builds the same seeded world, runs it to completion and checks its
outputs; this script checks that the trials agree, turns their raw
figures into the named metrics and prints them.  Host times are scaled
to the idle host's speed by the probes catbench times between slices,
and each slice's time is the median over the trials.  --trace 0 reports
the end-to-end metrics; --trace 1 alternates untraced and traced trials
and reports the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is nonzero when any correctness check fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "catbench.exe")
WORKLOADS = ["forward", "tcp_bulk", "acct_small", "recorded"]
TRIAL_TIMEOUT_S = 150
MIN_TRIALS = 5

# Host CPU ns of one catbench probe, without a minor collection in it, on
# an idle host: its least times were 31-40 us on a 2-vCPU virtual host.
# Every time the end-to-end metrics report is scaled to this speed; see
# probe_factor.
PROBE_IDLE_NS = 36_000
# Probes that scale a trial's set-up time.
SETUP_PROBES = 5

# (name, unit): the end-to-end metrics, measured with tracing off.
END_TO_END = [
    ("setup_s", "s"),
    ("datagrams_per_s", "1/s"),
    ("goodput_bytes_per_s", "B/s"),
    ("slice_us_p50", "us"),
    ("slice_us_p99", "us"),
    ("words_per_datagram", "words"),
    ("peak_heap_mb", "MB"),
    ("success_pct", "%"),
]

# (name, unit, the end-to-end metric it should move and where).
PER_LAYER = [
    ("engine.events_per_datagram", "count", "datagrams_per_s on forward"),
    ("engine.self_ns_per_datagram", "ns", "datagrams_per_s on forward"),
    ("engine.self_words_per_datagram", "words", "words_per_datagram on forward"),
    ("engine.timer_starts_per_datagram", "count", "words_per_datagram on tcp_bulk"),
    ("engine.pending_max", "count", "slice_us_p99 on tcp_bulk"),
    ("netsim.frames_per_datagram", "count", "hop normaliser"),
    ("netsim.drops_queue", "count", "goodput_bytes_per_s on tcp_bulk"),
    ("ip.gw_receive_ns", "ns", "datagrams_per_s on forward, acct_small"),
    ("ip.gw_receive_p99_ns", "ns", "datagrams_per_s on forward, acct_small"),
    ("ip.gw_receive_words", "words", "words_per_datagram on forward, acct_small"),
    ("ip.route_cache_hit_pct", "%", "datagrams_per_s on forward, acct_small"),
    ("ip.host_receive_ns", "ns", "goodput_bytes_per_s on tcp_bulk"),
    ("ip.host_receive_words", "words", "words_per_datagram on tcp_bulk"),
    ("ip.drops", "count", "success_pct"),
    ("ip.acct_gw_receive_ns", "ns", "datagrams_per_s on acct_small only"),
    ("ip.acct_gw_receive_words", "words", "words_per_datagram on acct_small only"),
    ("acct.tracked_flows", "count", "none: accounting output"),
    ("acct.cardinality_err_pct", "%", "none: accounting output"),
    ("hostpool.send_ns", "ns", "datagrams_per_s on acct_small"),
    ("hostpool.send_words", "words", "words_per_datagram on acct_small"),
    ("tcp.send_ns", "ns", "goodput_bytes_per_s on tcp_bulk"),
    ("tcp.send_words", "words", "words_per_datagram on tcp_bulk"),
    ("tcp.fast_path_pct", "%", "goodput_bytes_per_s on tcp_bulk"),
    ("tcp.retransmit_pct", "%", "goodput_bytes_per_s on tcp_bulk"),
    ("tcp.rto_fires", "count", "goodput_bytes_per_s on tcp_bulk"),
    ("trace.events_per_datagram", "count", "datagrams_per_s on recorded"),
    ("trace.gw_receive_ns", "ns", "datagrams_per_s on recorded"),
    ("gc.minor_collections", "count", "slice_us_p99, peak_heap_mb everywhere"),
    ("gc.major_collections", "count", "slice_us_p99, peak_heap_mb everywhere"),
    ("gc.promoted_words_per_datagram", "words", "slice_us_p99, peak_heap_mb everywhere"),
    ("trace_overhead_pct", "%", "cost of the benchmark's own spans"),
]

ENGINE_SELF_NOTE = (
    "note: engine self time is Engine.step time minus wrapped child calls; it "
    "also holds netsim transmit/deliver bodies, Hostpool delivery and TCP "
    "timer callbacks, which pass through no public function the benchmark "
    "can wrap.  gc.* come from the untraced trials of the same run, with "
    "the collections the probes bring forward."
)


class BenchError(Exception):
    pass


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise BenchError(
            "run from the repository root: dune-project and lib/ are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/catbench.exe"]
    r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                       timeout=850)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout + r.stderr)


def trial(workload, seed, traced, spans=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if spans:
        cmd += ["--spans", spans]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=TRIAL_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("trial failed: %s\n%s" % (" ".join(cmd), r.stderr))
    return json.loads(r.stdout)


def run_trials(workload, seed, seconds, traced):
    """Untraced trials, or untraced/traced pairs, while another fits in
    [seconds]; at least MIN_TRIALS."""
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    plain, stepped = [], []
    while True:
        plain.append(trial(workload, seed, False))
        if traced:
            spans = None
            if not stepped:
                spans = os.path.join(OUT_DIR, "spans-%s.bin" % workload)
            stepped.append(trial(workload, seed, True, spans))
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_TRIALS and elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, stepped


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1,
                   int(round(q / 100.0 * len(sorted_values) + 0.5)) - 1))
    return sorted_values[k]


def med(values):
    return statistics.median(values)


def per_datagram(t, x):
    return x / t["delivered"] if t["delivered"] else 0.0


def probe_factor(probe_ns):
    """How much slower than idle the host ran, from a probe's CPU ns."""
    return probe_ns / PROBE_IDLE_NS


def normalised_slices(t):
    """One trial's slice times in ns at the idle host's speed.

    catbench times a fixed probe after every few slices (see Probe in
    catbench.ml) and negates the time of one that a minor collection ran
    in: that one timed the simulator's garbage, not the host, so it is
    skipped.  Each slice is divided by the mean factor of the probes
    before and after it; slices with a probe on one side only, by that
    probe's."""
    out, group = [], []
    before = None
    for cpu, probe in zip(t["slices_cpu_ns"], t["slices_probe_ns"]):
        group.append(cpu)
        if probe > 0:
            f = probe_factor(probe)
            mean = f if before is None else (before + f) / 2
            out.extend(c / mean for c in group)
            group, before = [], f
    if before is None:
        raise BenchError("%s: no probe ran without a minor collection" % t["workload"])
    return out + [c / before for c in group]


def setup_seconds(t):
    """Set-up CPU time at the idle host's speed, by the run's first probes,
    which follow set-up within a few milliseconds."""
    first = [p for p in t["slices_probe_ns"] if p > 0][:SETUP_PROBES]
    return t["setup_cpu_ns"] / 1e9 / probe_factor(med(first))


def typical_slices(plain):
    """Each slice's normalised time, the median over the trials of the run.

    Every trial of a seed runs the same events in the same slices, and the
    same garbage collections in them, so slice i does the same work in
    every trial."""
    return [med(ts) for ts in zip(*(normalised_slices(t) for t in plain))]


def end_to_end(plain):
    typical = typical_slices(plain)
    host_s = sum(typical) / 1e9
    first = plain[0]
    attempted = sum(t["attempted"] for t in plain)
    failed = sum(t["failed"] for t in plain)
    ordered = sorted(typical)
    values = {
        "setup_s": med([setup_seconds(t) for t in plain]),
        "datagrams_per_s": sum(first["slices_delivered"]) / host_s,
        "goodput_bytes_per_s": sum(first["slices_bytes"]) / host_s,
        "slice_us_p50": percentile(ordered, 50) / 1e3,
        "slice_us_p99": percentile(ordered, 99) / 1e3,
        "words_per_datagram": med([per_datagram(t, t["minor_words"]) for t in plain]),
        "peak_heap_mb": med([t["top_heap_words"] * 8 / 2**20 for t in plain]),
        "success_pct": 100.0 * (attempted - failed) / attempted,
    }
    return values, len(typical)


def span_mean(t, kind, field):
    s = t["spans"][kind]
    return s[field] / s["count"] if s["count"] else 0.0


def layer_values(t, plain_t):
    """Per-layer figures of one traced trial [t]; gc.* from its untraced twin."""
    pct = lambda a, b: 100.0 * a / b if b else 0.0
    recorder = t["trace_events"] > 0
    hits, misses = t["route_cache_hits"], t["route_cache_misses"]
    return {
        "engine.events_per_datagram": per_datagram(t, t["steps"]),
        "engine.self_ns_per_datagram": per_datagram(t, t["spans"]["engine.self_ns"]),
        "engine.self_words_per_datagram": per_datagram(t, t["spans"]["engine.self_words"]),
        "engine.timer_starts_per_datagram": per_datagram(t, t["timer_starts"]),
        "engine.pending_max": t["pending_max"],
        "netsim.frames_per_datagram": per_datagram(t, t["frames"]),
        "netsim.drops_queue": t["drops_queue"],
        "ip.gw_receive_ns": span_mean(t, "ip.gw_receive", "ns"),
        "ip.gw_receive_p99_ns": t["spans"]["ip.gw_receive_p99_ns"],
        "ip.gw_receive_words": span_mean(t, "ip.gw_receive", "words"),
        "ip.route_cache_hit_pct": pct(hits, hits + misses),
        "ip.host_receive_ns": span_mean(t, "ip.host_receive", "ns"),
        "ip.host_receive_words": span_mean(t, "ip.host_receive", "words"),
        "ip.drops": t["ip_drops"],
        "ip.acct_gw_receive_ns": span_mean(t, "ip.acct_gw_receive", "ns"),
        "ip.acct_gw_receive_words": span_mean(t, "ip.acct_gw_receive", "words"),
        "acct.tracked_flows": t["acct_tracked"],
        "acct.cardinality_err_pct":
            pct(abs(t["acct_flow_estimate"] - t["offered_flows"]), t["offered_flows"])
            if t["acct_tracked"] else 0.0,
        "hostpool.send_ns": span_mean(t, "hostpool.send", "ns"),
        "hostpool.send_words": span_mean(t, "hostpool.send", "words"),
        "tcp.send_ns": span_mean(t, "tcp.send", "ns"),
        "tcp.send_words": span_mean(t, "tcp.send", "words"),
        "tcp.fast_path_pct": pct(t["tcp_fast_path"], t["tcp_segs_in"]),
        "tcp.retransmit_pct": pct(t["tcp_bytes_retransmitted"], t["tcp_bytes_out"]),
        "tcp.rto_fires": t["tcp_rto_fires"],
        "trace.events_per_datagram": per_datagram(t, t["trace_events"]),
        "trace.gw_receive_ns": span_mean(t, "ip.gw_receive", "ns") if recorder else 0.0,
        "gc.minor_collections": plain_t["minor_collections"],
        "gc.major_collections": plain_t["major_collections"],
        "gc.promoted_words_per_datagram": per_datagram(plain_t, plain_t["promoted_words"]),
    }


def per_layer(plain, stepped):
    rows = [layer_values(t, p) for t, p in zip(stepped, plain)]
    values = {name: med([r[name] for r in rows]) for name, _, _ in PER_LAYER[:-1]}
    dps = lambda ts: med([t["delivered"] / (t["measure_cpu_ns"] / 1e9) for t in ts])
    values["trace_overhead_pct"] = 100.0 * (1.0 - dps(stepped) / dps(plain))
    return values


def checks(plain, stepped):
    """Correctness failures across the trials of one run."""
    errors = []
    for t in plain + stepped:
        for e in t["errors"]:
            errors.append("%s trace=%s: %s" % (t["workload"], t["trace"], e))
    if len({t["digest"] for t in plain + stepped}) != 1:
        errors.append("simulated-statistics digest differs between trials of one seed")
    if len({t["minor_words"] for t in plain}) != 1:
        errors.append("words allocated differ between untraced trials of one seed")
    for f in ("slices_delivered", "slices_bytes"):
        if len({tuple(t[f]) for t in plain}) != 1:
            errors.append("%s differ between untraced trials of one seed" % f)
    return errors


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath("."):
        return "unknown"
    return lines[1]


def environment(seed, plain):
    return {"nproc": os.cpu_count(), "ocaml": plain[0]["ocaml"],
            "commit": commit(), "seed": seed}


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def run_workload(workload, seed, seconds, traced):
    """One benchmark run: (correct, attempted, failed, metrics)."""
    plain, stepped = run_trials(workload, seed, seconds, traced)
    errors = checks(plain, stepped)
    env = environment(seed, plain)
    attempted = sum(t["attempted"] for t in plain)
    failed = sum(t["failed"] for t in plain)
    e2e, nslices = end_to_end(plain)
    print("== %s  seed=%d  trials=%d%s" % (workload, seed, len(plain),
          "+%d traced" % len(stepped) if traced else ""))
    print("env: " + json.dumps(env, sort_keys=True))
    print("digest: " + plain[0]["digest"])
    for name, unit in END_TO_END:
        extra = "  (%d slices)" % nslices if name.startswith("slice_us") else ""
        print("  %-34s %14s %s%s" % (name, fmt(e2e[name]), unit, extra))
    if traced:
        layers = per_layer(plain, stepped)
        print("  per layer (traced run):")
        for name, unit, moves in PER_LAYER:
            print("  %-34s %14s %-6s -> %s" % (name, fmt(layers[name]), unit, moves))
        print("  " + ENGINE_SELF_NOTE)
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    for e in errors:
        print("CHECK FAILED: " + e)
    # One file per workload and mode, replaced by the next run.
    path = os.path.join(OUT_DIR, "%s-trace%d.json" % (workload, int(traced)))
    with open(path, "w") as f:
        json.dump({"env": env, "correct": not errors, "errors": errors,
                   "metrics": metrics, "trials": plain, "traced_trials": stepped},
                  f)
    return not errors, attempted, failed, metrics


def main():
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running trial before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not a.all and a.workload is None:
        ap.error("give --workload NAME or --all")
    try:
        build()
        if a.all:
            correct, attempted, failed, metrics = True, 0, 0, {}
            for w in WORKLOADS:
                for traced in (False, True):
                    ok, at, fa, m = run_workload(w, a.seed, a.seconds, traced)
                    correct = correct and ok
                    if not traced:
                        attempted, failed = attempted + at, failed + fa
                    metrics.update({"%s.%s" % (w, k): v for k, v in m.items()})
        else:
            correct, attempted, failed, metrics = run_workload(
                a.workload, a.seed, a.seconds, a.trace == 1)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
