#!/usr/bin/env python3
"""RGB membership benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The script builds the harness (perfbench/
CMakeLists.txt, which compiles the repository's src/) into .bench_build/,
generates the workload's op schedule from the seed (workloads.py), replays
it in the harness, checks the final membership against the generator's
ground truth, and prints one JSON result as the last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Any correctness miss makes the exit code non-zero. See NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import workloads  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")
HARNESS = os.path.join(BUILD_DIR, "rgb_perfbench")
RUN_TIMEOUT_S = 170
# Wall times are reported in seconds of a host that runs the harness's
# fixed reference work (harness/reference.cpp) in this long: each timed
# repetition is scaled by REFERENCE_S over the reference time measured
# around it, which takes out the host's own speed drift. The 4-vCPU Xeon
# the bounds were set on ran it in 0.10 to 0.13 s.
REFERENCE_S = 0.1
CLASSES = ["token", "notify", "sync", "probe", "repair", "snapshot", "query", "mh"]
SPAN_NAMES = ["sim.run_block", "op.issue", "query.issue", "query.stale_check",
              "wire.replay",
              "wire.size", "wire.encode", "wire.decode", "directory.probe",
              "table.probe"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no src/ next to perfbench/: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr, env=env)


def run_harness(schedule_text, out_dir, seconds, trace, min_reps=3):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "schedule.txt")
    with open(path, "w") as f:
        f.write(schedule_text)
    proc = subprocess.run(
        [HARNESS, "--schedule", path, "--seconds", str(seconds), "--trace",
         "1" if trace else "0", "--out", out_dir, "--min-reps", str(min_reps)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_view(out_dir):
    with open(os.path.join(out_dir, "final_view.txt")) as f:
        return sorted(tuple(int(x) for x in line.split()) for line in f if line.strip())


def view_misses(truth, view):
    """Members whose final record is missing, extra or at the wrong AP."""
    want = {(g, m): ap for g, m, ap in truth}
    got = {(g, m): ap for g, m, ap in view}
    return sum(1 for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def ratio(a, b):
    return a / b if b else 0.0


def self_times_ms(span_file):
    """Per-span-name self time: duration minus the time its children cover.
    Spans nest through a stack, so children never overlap."""
    with open(span_file) as f:
        spans = json.load(f)["spans"]
    child_ns = {}
    for s in spans:
        if s["parent"]:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    out = {name: 0.0 for name in SPAN_NAMES}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        out[s["name"]] = out.get(s["name"], 0.0) + own / 1e6
    return out


def host_facts(result):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "compiler": result["host"]["compiler"],
            "build_type": result["host"]["build_type"]}


def host_factor(rep):
    """How much slower than nominal the host ran around one repetition."""
    return rep["reference_s"] / REFERENCE_S


def end_to_end(result, ops, failed, attempted):
    reps, det, change = result["reps"], result["det"], result["change"]
    return {
        "setup_s": (statistics.median(r["setup_s"] / host_factor(r) for r in reps), "s"),
        "ops_per_s": (statistics.median(ops / r["window_s"] * host_factor(r)
                                        for r in reps), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "change_ms_p50": (change["p50_us"] / 1000.0, "ms"),
        "change_ms_p99": (change["p99_us"] / 1000.0, "ms"),
        "msgs_per_op": (det["msgs"] / ops, "msg/op"),
        "bytes_per_op": (det["bytes"] / ops, "B/op"),
        "ok_ratio": (1.0 - failed / attempted, "1"),
    }


def per_layer(result, det, ops, out_dir):
    lay = result["traced"]["layers"]
    m = {}
    events = det["events"]
    reps, traced = result["reps"], result["traced"]
    untraced_window = statistics.median(r["window_s"] / host_factor(r) for r in reps)
    traced_window = traced["window_s"]
    m["sim.events_per_op"] = (events / ops, "event/op")
    m["sim.self_ns_per_event"] = (
        ratio(traced_window * 1e9 - lay["handler_ns_total"], events), "ns")
    m["sim.cancelled_ratio"] = (det["cancelled_ratio"], "1")
    m["sim.pending_peak"] = (det["pending_peak"], "count")
    for c in CLASSES:
        m[f"net.msgs_per_op.{c}"] = (lay[f"net.msgs.{c}"] / ops, "msg/op")
        m[f"net.bytes_per_op.{c}"] = (lay[f"net.bytes.{c}"] / ops, "B/op")
    m["net.dropped_ratio"] = (ratio(lay["net.dropped"], lay["net.verdicts"]), "1")
    m["wire.size_ns_per_msg"] = (ratio(lay["wire.size_ns"], lay["wire.msgs"]), "ns")
    m["wire.encode_ns_per_kb"] = (ratio(lay["wire.encode_ns"], lay["wire.bytes"] / 1024), "ns/KB")
    m["wire.decode_ns_per_kb"] = (ratio(lay["wire.decode_ns"], lay["wire.bytes"] / 1024), "ns/KB")
    m["wire.bytes_per_msg"] = (ratio(lay["wire.bytes"], lay["wire.msgs"]), "B/msg")
    for c in CLASSES:
        m[f"rgb.handled_per_op.{c}"] = (lay[f"handled.{c}"] / ops, "msg/op")
        m[f"rgb.handler_ns_per_msg.{c}"] = (
            ratio(lay[f"handler_ns.{c}"], lay[f"handled.{c}"]), "ns")
    m["rgb.ops_per_round"] = (
        ratio(det["rgb.ops_disseminated"], det["rgb.rounds_completed"]), "op/round")
    m["rgb.empty_probe_round_ratio"] = (
        ratio(det["rgb.empty_probe_rounds"], det["rgb.rounds_started"]), "1")
    m["rgb.mq.aggregated_ratio"] = (
        ratio(det["rgb.ops_aggregated"],
              det["rgb.ops_aggregated"] + det["rgb.ops_disseminated"]), "1")
    m["rgb.token_retx_per_op"] = (det["rgb.token_retransmits"] / ops, "1/op")
    m["rgb.notify_retx_per_op"] = (det["rgb.notify_retransmits"] / ops, "1/op")
    m["rgb.reconcile_rounds_per_op"] = (det["rgb.reconcile_rounds"] / ops, "1/op")
    m["rgb.sync.fulls_per_op"] = (det["rgb.group_fulls_sent"] / ops, "1/op")
    m["rgb.sync.diffs_per_full"] = (
        ratio(det["rgb.group_diffs_sent"], det["rgb.group_fulls_sent"]), "1")
    m["rgb.sync.digest_groups_packed_per_tick"] = (
        ratio(det["rgb.digest_groups_packed"], det["viewsync_msgs"]), "group/link/tick")
    m["rgb.sync.bytes_per_link_tick"] = (
        ratio(det["viewsync_bytes"], det["viewsync_msgs"]), "B/link/tick")
    probes = lay["dir.probes"]
    for name in ["combined_digest", "packed_digests", "queue_scan", "merged_snapshot"]:
        m[f"rgb.directory.{name}_ns"] = (ratio(lay[f"dir.{name}_ns"], probes), "ns")
    m["rgb.directory.groups_per_ne"] = (ratio(lay["dir.groups_seen"], probes), "group")
    m["rgb.table.snapshot_ns_per_entry"] = (
        ratio(lay["table.snapshot_ns"], lay["table.entries"]), "ns")
    m["rgb.table.newer_than_ns"] = (ratio(lay["table.newer_than_ns"], lay["table.tables"]), "ns")
    m["rgb.table.entries_total"] = (det["entries_total"], "count")
    queries = det["queries"]
    m["rgb.query.msgs_per_query"] = (ratio(det["query_messages"], queries), "msg")
    m["rgb.query.reply_kb"] = (ratio(det["query_reply_bytes"] / 1024, queries), "KB")
    m["rgb.query.incomplete_ratio"] = (ratio(det["queries_incomplete"], queries), "1")
    m["rgb.query.stale_members"] = (ratio(lay["query.stale_members"], queries), "member")
    m["rgb.query.ms_p50"] = (det["query_p50_us"] / 1000.0, "ms")
    m["rgb.query.ms_p99"] = (det["query_p99_us"] / 1000.0, "ms")
    m["obs.spans_recorded"] = (lay["obs.spans_recorded"], "count")
    m["obs.spans_dropped"] = (lay["obs.spans_dropped"], "count")
    m["obs.trace_overhead"] = (traced_window / host_factor(traced) / untraced_window, "1")
    m["obs.quantile_above_max"] = (det["quantile_above_max"], "count")
    for name, ms in self_times_ms(os.path.join(out_dir, "bench_spans.json")).items():
        m[f"trace.self_ms.{name}"] = (ms, "ms")
    m["host.reference_ms"] = (
        statistics.median(r["reference_s"] for r in reps) * 1000.0, "ms")
    return m


def print_human(metrics, result, extras):
    for key, (value, unit) in metrics.items():
        log(f"  {key:<44} {value:>16.6f} {unit}")
    det, change = result["det"], result["change"]
    log(f"  change latency: exact over n={int(change['count'])} (op, NE) samples, "
        f"max {change.get('max_us', 0) / 1000.0:.3f} ms")
    log(f"  tracer histogram: p50 {det['tracer_change_p50_us'] / 1000.0:.3f} ms, "
        f"p99 {det['tracer_change_p99_us'] / 1000.0:.3f} ms, "
        f"n={int(det['tracer_change_count'])}, exact max "
        f"{det['tracer_change_max_us'] / 1000.0:.3f} ms, "
        f"{int(det['quantile_above_max'])} percentiles above their max")
    for line in extras:
        log("  " + line)


def run_once(args):
    make = workloads.WORKLOADS[args.workload]
    w = make(args.seed)
    ops = w.member_ops()
    out_dir = os.path.join(RUNS_DIR, f"{args.workload}-{args.seed}-t{args.trace}")
    result = run_harness(w.schedule_text(), out_dir, args.seconds, args.trace)
    det = result["det"]
    gate = result["gate"]

    misses = view_misses(w.truth(), read_view(out_dir))
    queries = int(det["queries"])
    incomplete = int(det["queries_incomplete"])
    problems = []
    if misses:
        problems.append(f"{misses} members differ from the generator's ground truth")
    if not gate["membership_converged"]:
        problems.append("membership_converged() is false")
    if gate["group_view_divergence"]:
        problems.append(f"group_view_divergence() = {gate['group_view_divergence']} "
                        f"({gate['divergent_members']} members wrong somewhere)")
    if not gate["rings_consistent"]:
        problems.append("rings_consistent() is false")
    if gate["violation_count"]:
        problems.append(f"{gate['violation_count']} check-layer violations: "
                        + "; ".join(gate["violations"]))
    if incomplete:
        problems.append(f"{incomplete} queries incomplete or timed out")
    if not result["deterministic"]:
        problems.append("repetitions of one schedule disagreed")
    if args.trace and result["traced"]["layers"]["wire.mismatches"]:
        problems.append("wire replay: decode or size mismatch")
    # A miss is an op whose effect is wrong in the final view (at the top or
    # at any NE) or a query that did not complete; a failed check that names
    # no op still counts once.
    attempted = ops + queries
    failed = max(misses, gate["divergent_members"]) + incomplete
    failed = min(attempted, max(failed, 1 if problems else 0))

    if args.trace:
        metrics = per_layer(result, det, ops, out_dir)
    else:
        metrics = end_to_end(result, ops, failed, attempted)
    facts = host_facts(result)
    reps = result["reps"]
    extras = [f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted})",
              "wall as measured: setup_s %.6f s, ops_per_s %.3f 1/s, host reference "
              "%.3f ms (medians)" % (
                  statistics.median(r["setup_s"] for r in reps),
                  statistics.median(ops / r["window_s"] for r in reps),
                  statistics.median(r["reference_s"] for r in reps) * 1000.0),
              f"host: nproc={facts['nproc']} cpu={facts['cpu']} "
              f"compiler={facts['compiler']} build={facts['build_type']}",
              f"timed repetitions: {len(result['reps'])} (after one capture repetition)"]
    if det["viewsync_msgs"]:
        extras.append("sync_bytes_per_link_tick %.3f B/link/tick (%d kViewSync sends)"
                      % (det["viewsync_bytes"] / det["viewsync_msgs"], det["viewsync_msgs"]))
    if queries:
        extras.append("query_ms_p50 %.3f ms, query_ms_p99 %.3f ms (n=%d complete, "
                      "exact max %.3f ms)" % (det["query_p50_us"] / 1000.0,
                                             det["query_p99_us"] / 1000.0,
                                             queries - det["queries_incomplete"],
                                             det["query_max_us"] / 1000.0))
    log(f"{args.workload} seed={args.seed} trace={args.trace}: {ops} ops")
    print_human(metrics, result, extras)
    for p in problems:
        log("CORRECTNESS: " + p)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"host": facts, "raw": result, "metrics": metrics}, f, indent=1)

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def selftest(scale=0.1):
    """Same seed twice: identical counts and simulated-time metrics, and an
    identical schedule. Another seed: different ones. Runs the workloads at
    a tenth of their size."""
    ok = True
    for name, make in workloads.WORKLOADS.items():
        runs = []
        for run, seed in enumerate([11, 11, 12]):
            w = make(seed, scale)
            out_dir = os.path.join(RUNS_DIR, f"selftest-{name}-{run}")
            result = run_harness(w.schedule_text(), out_dir, 0, False, min_reps=1)
            runs.append((w.schedule_text(), result["det"], result["change"]))
        same = runs[0] == runs[1]
        differs = all(a != b for a, b in zip(runs[0], runs[2]))
        log(f"selftest {name}: same seed repeats={same}, other seed differs={differs}")
        ok = ok and same and differs
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check that the seed alone determines every count")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    start = time.monotonic()
    try:
        build()
        log(f"build ready after {time.monotonic() - start:.1f} s")
        return selftest() if args.selftest else run_once(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
