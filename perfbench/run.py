#!/usr/bin/env python3
"""End-to-end and layer-by-layer benchmark of the obscorr pipeline.

usage: python3 perfbench/run.py --workload study|capture|replay|serve|all
                                --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds `obscorr` and the layer tracer (perfbench/trace) in
$CARGO_TARGET_DIR (default .bench_build); later runs reuse that build.
Every scratch file lives under the same directory.

--trace 0 times the workload's jobs with nothing armed and reports the
end-to-end metrics. --trace 1 repeats the workload's 4-thread job with and
without the program's telemetry, reads the program's existing counters,
and runs the layer tracer, which records a span around each layer
call; it reports the per-layer metrics. Both print a human-readable report
first and one JSON result line last. `--workload all` runs every workload
in turn, serve included, and prefixes each metric with its workload.
See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import time

import procs
import serve_load

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "perfbench-cmake")
WORK = os.path.join(BUILD, "perfbench-work")
OBSCORR = os.path.join(CMAKE_DIR, "tools", "obscorr")
TRACER = os.path.join(CMAKE_DIR, "perfbench-trace")
GOLDEN = os.path.join(ROOT, "tests", "data", "golden_study")

THREADS = 4
STUDY_NV = 19      # `obscorr study`: 5 windows of 2^19 packets + 15 honeyfarm months
CAPTURE_NV = 20    # `obscorr scaling`: ladder of windows 2^10 .. 2^20
REPLAY_NV = 18     # `obscorr archive` and the --from reads over it
MIN_REPS = 3       # timed repetitions per run, even when --seconds runs out first
SETUP_REPS = 15

# Serve load: the cold-cache repro recorded in ROADMAP.md (first open
# item), `obscorr-bots --clients 4 --requests 40 --heavy` against a fresh
# `obscorr serve` over a copy of tests/data/golden_study, replayed open
# loop. The mix is the bots' --heavy mix (tools/obscorr_bots.cpp:
# kCheapMix, then kHeavyMix), in its order.
BOTS_HEAVY_MIX = [("stats", {}), ("degrees", {"snapshot": 0}), ("lookup", {"ip": "10.0.0.1"}),
                  ("stats", {}), ("lookup", {"ip": "203.0.113.7"}), ("metrics", {}),
                  ("report", {}), ("scaling", {})]
SERVE_CONNS = 4
SERVE_PER_CONN = 40
SERVE_RATE = 140.0         # offered requests/s: what the closed-loop repro sustains when it does
                           # not stall (130-160/s on a 4-vCPU host, seed commit)
SERVE_DEADLINE_S = 10.0    # the daemon's own default --request-timeout
SERVE_LIMIT_MS = 1000.0    # goodput limit, above the worst latency (765 ms) in
                           # bench/baselines/BENCH_service.json
SERVE_DRAIN_S = 3.0        # SIGTERM to SIGKILL
SERVE_WINDOW_PACKETS = 1 << 16  # the daemon's default --window-packets

WORKLOADS = ["study", "capture", "replay", "serve"]


class BenchError(Exception):
    pass


# --------------------------------------------------------------- build --

def build():
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no obscorr sources at {ROOT} (missing {need})")
    os.makedirs(CMAKE_DIR, exist_ok=True)
    log = os.path.join(BUILD, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(ROOT, "perfbench", "trace",
                                                               "build.cmake")])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "obscorr", "perfbench-trace"])
    with open(log, "ab") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                raise BenchError(f"build failed: {' '.join(cmd)} (log: {log})")


# ------------------------------------------------------------- helpers --

class Run:
    """Operations, checks and canaries of one benchmark run."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.checks = []          # (name, ok, detail)
        self.canaries = {}
        self.dir = os.path.join(WORK, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def obscorr(self, args, out_name=None, timeout_s=170.0):
        """Run obscorr once; a bad exit counts as a failed operation."""
        self.attempted += 1
        res = procs.run_timed([OBSCORR] + args, cwd=self.dir, timeout_s=timeout_s,
                              out_path=self.path(out_name) if out_name else None)
        if res.code != 0:
            tail = res.err.decode(errors="replace").strip().splitlines()[-1:] if res.err else []
            self.check(f"exit {' '.join(args[:2])}", False, f"code {res.code} {tail}")
        return res

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1

    def same(self, name, outputs):
        """Every byte string in `outputs` is identical."""
        first = outputs[0] if outputs else b""
        bad = [i for i, o in enumerate(outputs) if o != first]
        self.check(name, outputs and not bad, f"{len(outputs)} outputs" +
                   (f", differ at {bad[:3]}" if bad else ""))

    def canary(self, name, value):
        """A count that must repeat exactly; repeats within the run are compared."""
        if name in self.canaries and self.canaries[name] != value:
            self.check(f"canary {name}", False, f"{self.canaries[name]} then {value}")
        self.canaries[name] = value

    @property
    def correct(self):
        return all(ok for _, ok, _ in self.checks)


def median(xs):
    return statistics.median(xs)


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def tree_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def read(path):
    with open(path, "rb") as f:
        return f.read()


def timed_loop(seconds, body, min_reps=MIN_REPS):
    """Call body(rep) at least `min_reps` times, and again while another
    repetition of the mean length so far still ends within `seconds`."""
    t0 = time.perf_counter()
    rep = 0
    while True:
        elapsed = time.perf_counter() - t0
        if rep >= min_reps and elapsed + elapsed / rep > seconds:
            break
        body(rep)
        rep += 1


# --------------------------------------------------------------- setup --

def setup(run):
    """The preparation before timing, repeated SETUP_REPS times.

    Every workload checks the committed golden archive: a fresh
    `study --log2-nv 12 --seed 42` must print exactly what
    `study --from tests/data/golden_study` prints. This also loads the
    binary and warms the file cache before anything is timed. `serve`
    reads that archive, so it needs no other preparation.
    """
    times, outs = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        outs.append(run.obscorr(["study", "--log2-nv", "12", "--seed", "42", "--threads",
                                 str(THREADS)], "golden_fresh.out").out)
        outs.append(run.obscorr(["study", "--from", GOLDEN, "--threads", str(THREADS)],
                                "golden_from.out").out)
        times.append(time.perf_counter() - t0)
    run.same("golden: study --log2-nv 12 == study --from golden_study", outs)
    return times


# ------------------------------------------------------------- batch ----

def batch_pairs(run, seconds, args, name):
    """Alternate the job at THREADS and at 1 thread; return both result lists."""
    four, one = [], []
    # One discarded run first: the first large job after the set-up pays
    # for faulting in the allocator's pools and is not what later runs see.
    warm = run.obscorr(args + ["--threads", str(THREADS)], f"{name}_warmup.out")

    def body(rep):
        order = (THREADS, 1) if rep % 2 == 0 else (1, THREADS)
        for t in order:
            res = run.obscorr(args + ["--threads", str(t)], f"{name}_{t}t.out")
            (four if t == THREADS else one).append(res)

    timed_loop(seconds, body)
    run.same(f"{name}: stdout identical at {THREADS} threads and at 1 thread, every repetition",
             [warm.out] + [r.out for r in four + one])
    return four, one


def stderr_counts(res):
    """The `telescope: N packets discarded, M source ids deanonymized` line of `study`."""
    for line in res.err.decode(errors="replace").splitlines():
        if line.startswith("telescope: "):
            words = line.replace(",", "").split()
            return int(words[1]), int(words[4]), int(words[-2])
    return None


def study_untraced(run, seconds):
    args = ["study", "--log2-nv", str(STUDY_NV), "--seed", str(run.seed)]
    four, one = batch_pairs(run, seconds, args, "study")
    for r in four + one:
        counts = stderr_counts(r)
        if counts:
            run.canary("study.discarded_packets", counts[0])
            run.canary("study.deanonymized_sources", counts[1])
    counts = stderr_counts(four[0])
    valid = (counts[2] if counts else 0) * (1 << STUDY_NV)
    run.canary("study.valid_packets", valid)
    return (*batch_metrics(four, one, valid), [])


def capture_untraced(run, seconds):
    args = ["scaling", "--log2-nv", str(CAPTURE_NV), "--seed", str(run.seed)]
    four, one = batch_pairs(run, seconds, args, "scaling")
    valid = sum(1 << k for k in range(10, CAPTURE_NV + 1))
    run.canary("capture.valid_packets", valid)
    return (*batch_metrics(four, one, valid), [])


def batch_metrics(four, one, valid):
    """(gated metrics, printed-only metrics) of the interleaved job runs."""
    w4 = [r.wall_s for r in four]
    w1 = [r.wall_s for r in one]
    return {
        "wall_s": (median(w4), "s", w4),
        "wall_1t_s": (median(w1), "s", w1),
        "speedup_4t": (median(w1) / median(w4), "x", None),
        "cpu_s": (median([r.cpu_s for r in four]), "s", [r.cpu_s for r in four]),
        "peak_rss_mb": (median([r.rss_mb for r in four]), "MiB", [r.rss_mb for r in four]),
    }, {
        "pkts_per_s": (valid / median(w4), "1/s", None),
    }


def compact_stats(res):
    stats = {}
    for line in res.out.decode(errors="replace").splitlines():
        if line.startswith("raw bytes:"):
            stats["raw"] = int(line.split()[-1].replace(",", ""))
        elif line.startswith("stored bytes:"):
            stats["stored"] = int(line.split()[-1].replace(",", ""))
    return stats


def replay_reads(run, threads, label):
    """`report`, `study` and `correlate` --from the raw and the compacted archive."""
    results, outs = [], {}
    for kind in ("raw", "compacted"):
        src = run.path(kind)
        rep_dir = run.path(f"report_{kind}_{threads}t")
        shutil.rmtree(rep_dir, ignore_errors=True)
        os.makedirs(rep_dir)
        t = ["--threads", str(threads)]
        results.append(run.obscorr(["report", "--from", src, "--out", rep_dir] + t))
        outs[("report", kind)] = b"".join(read(os.path.join(rep_dir, f))
                                         for f in sorted(os.listdir(rep_dir)))
        res = run.obscorr(["study", "--from", src] + t, f"study_from_{kind}_{label}.out")
        results.append(res)
        outs[("study", kind)] = res.out
        res = run.obscorr(["correlate", "--from", src] + t, f"correlate_{kind}_{label}.out")
        results.append(res)
        # The first line names the archive directory; the ranking follows.
        outs[("correlate", kind)] = res.out.split(b"\n", 1)[-1]
    return results, outs


def replay_job(run, threads, label, outs):
    """The replay job at `threads`: a fresh archive write, its compaction, the reads."""
    scale = ["--log2-nv", str(REPLAY_NV), "--seed", str(run.seed)]
    raw, packed = run.path("raw"), run.path("compacted")
    shutil.rmtree(raw, ignore_errors=True)
    shutil.rmtree(packed, ignore_errors=True)
    write = run.obscorr(["archive", "--out", raw, "--threads", str(threads)] + scale)
    shutil.copytree(raw, packed)  # the raw archive stays for the reads; not timed
    comp = run.obscorr(["archive", "compact", "--dir", packed, "--all", "--stats"],
                       "compact.out")
    stats = compact_stats(comp)
    run.canary("archive.raw_bytes", stats.get("raw"))
    run.canary("archive.stored_bytes", stats.get("stored"))
    run.canary("archive.compacted_dir_bytes", tree_bytes(packed))
    reads, o = replay_reads(run, threads, label)
    for (what, _), data in o.items():
        outs[what].append(data)
    job = [write, comp] + reads
    return {"wall_s": sum(r.wall_s for r in job),
            "cpu_s": sum(r.cpu_s for r in job),
            "rss_mb": max(r.rss_mb for r in job),
            "archive_s": write.wall_s,
            "archive_mb": tree_bytes(packed) / (1 << 20)}


def replay_untraced(run, seconds):
    scale = ["--log2-nv", str(REPLAY_NV), "--seed", str(run.seed)]
    fresh = run.obscorr(["study"] + scale + ["--threads", str(THREADS)], "replay_fresh_study.out")
    outs = {"report": [], "study": [fresh.out], "correlate": []}
    four, one = [], []

    def body(rep):
        for t in ((THREADS, 1) if rep % 2 == 0 else (1, THREADS)):
            (four if t == THREADS else one).append(replay_job(run, t, f"{rep}_{t}", outs))

    timed_loop(seconds, body)
    run.same("replay: fresh study == study --from raw == --from compacted, at 4 and 1 threads",
             outs["study"])
    run.same("replay: report --from raw == report --from compacted, at 4 and 1 threads",
             outs["report"])
    run.same("replay: correlate --from raw == --from compacted, at 4 and 1 threads",
             outs["correlate"])

    def col(jobs, key):
        return [j[key] for j in jobs]

    w4, w1 = col(four, "wall_s"), col(one, "wall_s")
    valid = 5 * (1 << REPLAY_NV)
    archive_s = col(four, "archive_s")
    metrics = {
        "wall_s": (median(w4), "s", w4),
        "wall_1t_s": (median(w1), "s", w1),
        "speedup_4t": (median(w1) / median(w4), "x", None),
        "cpu_s": (median(col(four, "cpu_s")), "s", col(four, "cpu_s")),
        "peak_rss_mb": (median(col(four, "rss_mb")), "MiB", col(four, "rss_mb")),
    }
    extra = {
        "archive_s": (median(archive_s), "s", archive_s),
        "archive_1t_s": (median(col(one, "archive_s")), "s", col(one, "archive_s")),
        "pkts_per_s": (valid / median(archive_s), "1/s", None),
        "archive_mb": (median(col(four, "archive_mb")), "MiB", col(four, "archive_mb")),
    }
    return metrics, extra, []


# --------------------------------------------------------------- serve --

def serve_requests(seed):
    """The open-loop schedule of one serve session.

    Connection b sends request r as the bots' client b would:
    BOTS_HEAVY_MIX[(b + r + seed) % 8], so seed 0 is the recorded repro
    and other seeds rotate which query each connection starts on. The
    4 x 40 requests are due one after another, 1 / SERVE_RATE apart,
    cycling through the connections.
    """
    reqs = []
    for r in range(SERVE_PER_CONN):
        for b in range(SERVE_CONNS):
            i = len(reqs)
            query, params = BOTS_HEAVY_MIX[(b + r + seed) % len(BOTS_HEAVY_MIX)]
            line = json.dumps({"id": i, "query": query, "params": params}) + "\n"
            check = query if query in ("report", "scaling", "degrees") else None
            reqs.append(serve_load.Request(b, line.encode(), i / SERVE_RATE, check))
    return reqs


def serve_session(run, sock):
    """One fresh daemon on a fresh copy of the golden archive, cold, under one schedule."""
    live = run.path("serve_live")
    shutil.rmtree(live, ignore_errors=True)
    shutil.copytree(GOLDEN, live)
    if os.path.exists(run.path(sock)):
        os.unlink(run.path(sock))
    reqs = serve_requests(run.seed)
    err_path = run.path("serve.err")
    with open(err_path, "wb") as err, open(os.devnull, "rb") as devnull:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [OBSCORR, "serve", "--from", live, "--unix", sock, "--threads", str(THREADS)],
            cwd=run.dir, stdin=devnull, stdout=subprocess.DEVNULL, stderr=err)
        try:
            # AF_UNIX paths are limited to 107 bytes: the daemon binds a
            # name relative to its working directory, the client connects
            # relative to its own.
            lag = serve_load.run_schedule(os.path.relpath(run.path(sock)), reqs,
                                          SERVE_CONNS, SERVE_DEADLINE_S)
        finally:
            code, ru = procs.stop(proc, SERVE_DRAIN_S)
        wall = time.perf_counter() - t0
    log = read(err_path).decode(errors="replace")
    published = 0
    for line in log.splitlines():
        if line.startswith("ingest: published "):
            published = int(line.split()[2])
    return {"reqs": reqs, "lag": lag, "wall": wall, "ru": ru, "published": published,
            "drained": code == 0 and "drained cleanly" in log}


def serve_untraced(run, seconds):
    sessions = []
    timed_loop(seconds, lambda rep: sessions.append(serve_session(run, "s.sock")))

    batch = {"report": run.obscorr(["study", "--from", GOLDEN], "b_report.out").out,
             "scaling": run.obscorr(["scaling", "--from", GOLDEN, "--threads", str(THREADS)],
                                    "b_scaling.out").out,
             "degrees": run.obscorr(["degrees", "--from", GOLDEN, "--snapshot", "0"],
                                    "b_degrees.out").out}
    latencies, good, stalled, errors, compared, mismatched = [], 0, 0, 0, 0, 0
    stalled_sessions, killed = 0, 0
    for s in sessions:
        run.attempted += 1 + len(s["reqs"])   # the daemon and its requests
        if not s["drained"]:
            killed += 1
            run.failed += 1
        session_stalls = 0
        for r in s["reqs"]:
            if r.done is None or r.done - r.due > SERVE_DEADLINE_S:
                session_stalls += 1
                continue
            if not r.ok:
                errors += 1
                continue
            if r.check:
                compared += 1
                mismatched += serve_load.reply_text(r.reply).encode() != batch[r.check]
            ms = (r.done - r.due) * 1000.0
            latencies.append(ms)
            good += ms <= SERVE_LIMIT_MS
        stalled += session_stalls
        stalled_sessions += session_stalls > 0
        run.canary("serve.requests_attempted", len(s["reqs"]))
    run.failed += stalled + errors
    run.check("serve: report/scaling/degrees replies == batch CLI bytes", mismatched == 0,
              f"{compared} compared, {mismatched} differ")

    latencies.sort()
    n = len(latencies)
    pct = min(0.99, max(0.5, 1.0 - 10.0 / n)) if n else 0.5  # >= 10 samples beyond it

    def q(p):
        return latencies[min(n - 1, int(p * n))] if n else SERVE_DEADLINE_S * 1000.0

    walls = [s["wall"] for s in sessions]
    offered = sum(s["reqs"][-1].due for s in sessions)
    metrics = {
        "p50_ms": (q(0.5), "ms", None),
        "p99_ms": (q(pct), "ms", None),
        "goodput_rps": (good / offered, "1/s", None),
        "ingest_pkts_per_s": (sum(s["published"] for s in sessions) * SERVE_WINDOW_PACKETS /
                              sum(walls), "1/s", None),
        "wall_s": (median(walls), "s", walls),
        "cpu_s": (median([s["ru"].ru_utime + s["ru"].ru_stime for s in sessions]), "s", None),
        "peak_rss_mb": (max(s["ru"].ru_maxrss for s in sessions) / 1024.0, "MiB", None),
    }
    total = sum(len(s["reqs"]) for s in sessions)
    notes = [f"{len(sessions)} sessions, each a fresh daemon on a cold copy of the golden "
             f"archive: {SERVE_CONNS} connections x {SERVE_PER_CONN} requests offered at "
             f"{SERVE_RATE:g}/s",
             f"{total} requests: {n} answered ok, {stalled} stalled past {SERVE_DEADLINE_S:g} s, "
             f"{errors} error replies; generator lag max "
             f"{max(s['lag'] for s in sessions) * 1000:.1f} ms",
             f"stalled sessions: {stalled_sessions} of {len(sessions)}; daemons SIGKILLed after "
             f"the {SERVE_DRAIN_S:g} s drain: {killed}",
             f"p99_ms is the p{pct * 100:g} latency ({n} samples, {n - int(pct * n)} beyond it)",
             f"wall_s, cpu_s: median daemon life and CPU per session; peak_rss_mb: largest"]
    return metrics, {}, notes


# ------------------------------------------------------------- traced ---

def metrics_doc(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["counters"]


def trace_job(run, seconds):
    """The workload's 4-thread job with and without the program's telemetry."""
    scale = {"study": ["study", "--log2-nv", str(STUDY_NV)],
             "capture": ["scaling", "--log2-nv", str(CAPTURE_NV)],
             "replay": ["archive", "--log2-nv", str(REPLAY_NV)]}[run.workload]
    args = scale + ["--seed", str(run.seed), "--threads", str(THREADS)]
    plain, armed, counters = [], [], []

    def body(rep):
        for traced in ((False, True) if rep % 2 == 0 else (True, False)):
            extra = []
            if run.workload == "replay":
                out = run.path("trace_archive")
                shutil.rmtree(out, ignore_errors=True)
                extra = ["--out", out]
            if traced:
                extra += ["--metrics-out", run.path("metrics.json")]
            res = run.obscorr(args + extra, "job.out")
            if traced:
                armed.append(res)
                counters.append(metrics_doc(run.path("metrics.json")))
            else:
                plain.append(res)

    timed_loop(max(1.0, seconds / 2.0), body, min_reps=2)
    for c in counters:
        for name in ("telescope.valid_packets", "telescope.discarded_packets",
                     "telescope.anon_cache_misses", "netgen.packets_emitted",
                     "archive.bytes_written"):
            run.canary(f"job.{name}", c.get(name))
    busy = [c["threadpool.busy_ns"] / (THREADS * r.wall_s * 1e9) for c, r in zip(counters, armed)]
    return {
        "untraced_wall_s": median([r.wall_s for r in plain]),
        "traced_wall_s": median([r.wall_s for r in armed]),
        # Armed / untraced wall - 1 of each interleaved pair.
        "overheads": [a.wall_s / p.wall_s - 1.0 for p, a in zip(plain, armed)],
        "busy_frac": median(busy),
        "help_drains": median([c["threadpool.help_drains"] for c in counters]),
        "counters": counters[0],
        "reps": len(plain),
    }


def walk(run):
    """The layer tracer's span document for this workload."""
    nv = {"study": STUDY_NV, "capture": CAPTURE_NV, "replay": REPLAY_NV,
          "serve": 12}[run.workload]
    out = run.path("spans.json")
    args = [TRACER, run.workload, "--log2-nv", str(nv), "--seed", str(run.seed),
            "--threads", str(THREADS), "--work", run.dir, "--out", out]
    if run.workload == "serve":
        live = run.path("serve_live")
        shutil.rmtree(live, ignore_errors=True)
        shutil.copytree(GOLDEN, live)
        args += ["--archive", live]
    run.attempted += 1
    res = procs.run_timed(args, cwd=run.dir, timeout_s=170.0)
    if res.code != 0:
        run.failed += 1
        raise BenchError("layer tracer failed: " + res.err.decode(errors="replace")[-400:])
    with open(out) as f:
        doc = json.load(f)
    doc["wall_s"] = res.wall_s
    for name, ok in doc["checks"].items():
        run.check(f"layer tracer: {name}", ok)
    for name in ("campaign.valid_packets", "campaign.discarded_packets", "d4m.triples",
                 "gbl.merge_calls", "telescope.anon_cache_misses", "archive.raw_bytes",
                 "archive.stored_bytes"):
        if name in doc["counts"]:
            run.canary(f"walk.{name}", int(doc["counts"][name]))
    return doc


def span_table(doc):
    """name -> (total seconds, self seconds, count, max seconds)."""
    spans = doc["spans"]
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    table = {}
    for s, c in zip(spans, child):
        d = s["end_ns"] - s["start_ns"]
        t = table.setdefault(s["name"], [0.0, 0.0, 0, 0.0])
        t[0] += d / 1e9
        t[1] += (d - c) / 1e9
        t[2] += 1
        t[3] = max(t[3], d / 1e9)
    return table


def layer_metrics(doc, job):
    t = span_table(doc)
    c = doc["counts"]
    m = {}

    def dur(name):
        return t[name][0] if name in t else None

    def put(name, value, unit):
        if value is not None:
            m[name] = (value, unit, None)

    put("netgen.population_s", dur("netgen.population"), "s")
    if "netgen.generate" in t:
        put("netgen.generate_pkts_per_s", c["netgen.generated_packets"] / dur("netgen.generate"),
            "1/s")
    if "crypt.anonymize" in t:
        put("crypt.anonymize_ns", dur("crypt.anonymize") * 1e9 / c["crypt.addresses"], "ns")
    put("telescope.capture_block_s", dur("telescope.capture_block"), "s")
    if "telescope.anon_cache_misses" in c:
        total = c["telescope.anon_cache_misses"] + c["telescope.anon_cache_hits"]
        put("telescope.anon_miss_ratio", c["telescope.anon_cache_misses"] / total, "ratio")
    put("gbl.block_sort_s", dur("gbl.block_sort"), "s")
    put("gbl.carry_merge_s", dur("gbl.carry_merge"), "s")
    put("gbl.reduce_s", dur("gbl.reduce"), "s")
    if "gbl.merge_calls" in c:
        put("gbl.merge_calls", c["gbl.merge_calls"], "count")
    put("core.capture_window_s", dur("core.capture_window"), "s")
    if "core.capture_window" in t:
        put("core.capture_window_max_s", t["core.capture_window"][3], "s")
    put("core.month_s", dur("core.month"), "s")
    if "core.month" in t:
        put("core.month_max_s", t["core.month"][3], "s")
    put("core.analyses_s", dur("core.analyses"), "s")
    put("core.fit_grid_s", dur("core.fit_grid"), "s")
    put("core.scaling_s", dur("core.scaling"), "s")
    put("honeyfarm.observe_month_s", dur("honeyfarm.observe_month"), "s")
    put("d4m.from_triples_s", dur("d4m.from_triples"), "s")
    if "d4m.triples" in c:
        put("d4m.triples", c["d4m.triples"], "count")
    put("archive.write_s", dur("archive.write"), "s")
    put("archive.compact_s", dur("archive.compact"), "s")
    if "archive.stored_bytes" in c:
        put("archive.ratio", c["archive.raw_bytes"] / c["archive.stored_bytes"], "x")
    put("archive.open_s", dur("archive.open"), "s")
    put("archive.load_raw_s", dur("archive.load_raw"), "s")
    put("archive.load_cold_s", dur("archive.load_cold"), "s")
    put("archive.load_hot_s", dur("archive.load_hot"), "s")
    put("analysis.store_s", dur("analysis.store"), "s")
    put("analysis.rank_s", dur("analysis.rank"), "s")
    for s in doc["spans"]:
        for phase in ("cold", "warm"):
            if s["name"] == f"svc.exec_{phase}":
                put(f"svc.exec_{phase}_us.{s['detail']}", (s["end_ns"] - s["start_ns"]) / 1e3,
                    "us")
    if "svc.exec_cold_us.lookup" in m:
        # The engine builds its honeyfarm database inside the first lookup.
        put("honeyfarm.db_build_s", (m["svc.exec_cold_us.lookup"][0] -
                                     m["svc.exec_warm_us.lookup"][0]) / 1e6, "s")
    if "svc.cache_hits" in c:
        total = c["svc.cache_hits"] + c["svc.cache_misses"]
        put("svc.cache_hit_ratio", c["svc.cache_hits"] / total if total else 0.0, "ratio")
    if "svc.ingest_window" in t:
        put("svc.ingest_window_s", dur("svc.ingest_window") / t["svc.ingest_window"][2], "s")
    if job is not None:
        put("pool.busy_frac", job["busy_frac"], "ratio")
        put("pool.help_drains", job["help_drains"], "count")
        m["obs.trace_overhead_frac"] = (median(job["overheads"]), "ratio", job["overheads"])
    return m


# -------------------------------------------------------------- report --

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def remember_canaries(run):
    """Compare this run's canaries with an earlier run of the same seed and binary."""
    digest = hashlib.sha256(read(OBSCORR) + read(TRACER)).hexdigest()[:16]
    store = os.path.join(BUILD, "perfbench-canaries.json")
    known = {}
    if os.path.exists(store):
        with open(store) as f:
            known = json.load(f)
    key = f"{run.workload}:{run.seed}:{digest}"
    current = {k: v for k, v in sorted(run.canaries.items())}
    if key in known:
        diff = sorted(k for k in current if k in known[key] and known[key][k] != current[k])
        run.check("canaries repeat the earlier run of this seed", not diff, ", ".join(diff))
    known[key] = {**known.get(key, {}), **current}
    with open(store, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)


def table_lines(title, metrics):
    lines = [f"  {title}"]
    for name, (value, unit, samples) in metrics.items():
        extra = ""
        if samples:
            m = median(samples)
            rel = f" = {iqr(samples) / m:.3f} of the median" if m > 0 else ""
            extra = (f"   median of {len(samples)}, IQR {iqr(samples):.4g}{rel}: "
                     + " ".join(f"{x:.4g}" for x in samples))
        lines.append(f"    {name:34s} {value:14.6g} {unit:6s}{extra}")
    return lines


def run_workload(workload, seed, seconds, trace):
    """One workload at one seed: set-up, jobs, checks. Returns (run, metrics, report)."""
    run = Run(workload, seed)
    t_start = time.perf_counter()
    extra, notes, doc = {}, [], None
    setup_times = setup(run)
    if trace == 0:
        fn = {"study": study_untraced, "capture": capture_untraced,
              "replay": replay_untraced, "serve": serve_untraced}[workload]
        measured, extra, notes = fn(run, seconds)
        metrics = {"setup_s": (median(setup_times), "s", setup_times), **measured}
    else:
        job = trace_job(run, seconds) if workload != "serve" else None
        doc = walk(run)
        notes = [f"layer tracer wall {doc['wall_s']:.3f} s"]
        if job:
            c, k = job["counters"], doc["counts"]
            run.check("layer tracer and CLI job agree on valid and discarded packets",
                      k.get("campaign.valid_packets") == c["telescope.valid_packets"] and
                      k.get("campaign.discarded_packets") == c["telescope.discarded_packets"],
                      f"{k.get('campaign.valid_packets')}/{k.get('campaign.discarded_packets')}"
                      f" vs {c['telescope.valid_packets']}/{c['telescope.discarded_packets']}")
            notes.insert(0, f"{THREADS}-thread job: untraced {job['untraced_wall_s']:.3f} s, "
                            f"with telemetry armed {job['traced_wall_s']:.3f} s "
                            f"(medians of {job['reps']})")
        metrics = layer_metrics(doc, job)
    remember_canaries(run)

    lines = [f"perfbench {workload} seed {seed} trace {trace}: "
             f"{time.perf_counter() - t_start:.1f} s, {run.attempted} operations, "
             f"{run.failed} failed"]
    lines += table_lines("metrics", metrics)
    if extra:
        lines += table_lines("also measured (not gated: see perfbench/README.md)", extra)
    lines.append(f"    {'fail_frac':34s} {run.failed / max(1, run.attempted):14.6g} ratio")
    lines += [f"  {n}" for n in notes]
    if doc is not None:
        lines.append("  spans (total / self seconds, count)")
        for name, (tot, self_s, cnt, _) in span_table(doc).items():
            lines.append(f"    {name:34s} {tot:10.4f} {self_s:10.4f} {cnt:6d}")
    lines.append("  checks")
    for name, ok, detail in run.checks:
        lines.append(f"    [{'ok' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    lines.append("  canaries (exact counts)")
    lines += [f"    {name:40s} {value}" for name, value in sorted(run.canaries.items())]
    return run, metrics, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    try:
        build()
        spec = load_spec() if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")) else {}
        listed = [w["name"] for w in spec.get("workloads", [])]
        key = "end_to_end" if a.trace == 0 else "per_layer"
        totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in (WORKLOADS if a.workload == "all" else [a.workload]):
            run, metrics, lines = run_workload(workload, a.seed, a.seconds, a.trace)
            print("\n".join(lines), flush=True)
            # Workloads listed in BENCHMARK.json print exactly its metrics;
            # the others (serve) print everything they measure.
            wanted = [m["name"] for m in spec[key]] if workload in listed else list(metrics)
            missing = [n for n in wanted if n not in metrics]
            if missing:
                raise BenchError(f"{workload} does not measure {missing}")
            prefix = f"{workload}." if a.workload == "all" else ""
            totals["correct"] = totals["correct"] and run.correct
            totals["attempted"] += run.attempted
            totals["failed"] += run.failed
            for n in wanted:
                totals["metrics"][prefix + n] = {"value": metrics[n][0], "unit": metrics[n][1]}
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
