"""Benchmark entry point for the workbench: one workload, one seed, one run.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (it imports ``src/workbench``).
Each workload is a closed loop: one process, one client, no threads; the
next job starts when the previous one returns.  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Only per-process timing is used (``time.perf_counter`` and ``getrusage``
of this process): no system-wide tracing, no cache dropping, no cgroup
changes.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import reference
import workloads
from tracer import MODULES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
MIN_PASSES = 3

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("exact_ratio", "ratio"),
    ("error_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# per-layer metric -> (traced function, statistic).  Self times and
# counts are per job of the traced passes.
SELF, CALLS = "self", "calls"
PER_LAYER = {}
for _fn, _stats in (
    ("vecautomata.from_equations", (SELF, "states")),
    ("vecautomata.project", (SELF, "states_in", "states_out")),
    ("vecautomata.minimize", (SELF, CALLS)),
    ("vecautomata.combine", (SELF, "states_out")),
    ("vecautomata.shortest_accepted", (SELF,)),
    ("semilinear.member", (SELF, CALLS, "hit_ratio")),
    ("semilinear.validate_semi_simple", (SELF,)),
    ("counter.accepted_words", (SELF, "expansions", "words_per_expansion")),
    ("counter.accepts", (SELF, CALLS)),
    ("counter.from_semilinear", (SELF,)),
    ("counter.dcm_for_bounded", (SELF,)),
    ("counter.decide_bounded", (SELF,)),
) + tuple(
    ("foundation.enumerate_language." + kind, (SELF, "explored"))
    for kind in ("BoundedSpec", "CounterMachine", "EtolSystem", "MatrixGrammar",
                 "RegularWitness")
) + (
    ("etol.step", (CALLS, SELF)),
    ("etol.step_with_multiplicity", (CALLS, SELF)),
    ("etol.count_trees", (SELF, CALLS, "inexact_ratio")),
    ("etol.index_audit", (SELF,)),
    ("etol.min_yield_map", (CALLS,)),
    ("matrix.matrix_applications", (CALLS, SELF)),
    ("matrix.count_derivations", (SELF, CALLS, "inexact_ratio")),
    ("matrix.normal_form", (SELF,)),
    ("matrix.szilard_dfa", (SELF, "states")),
    ("matrix.matrix_to_reduced_etol", (SELF,)),
    ("matrix.reduced_etol_to_matrix", (SELF,)),
    ("matrix.reduced_etol_to_edtol", (SELF,)),
    ("series.path_counts", (SELF,)),
    ("series.fit_recurrence", (SELF,)),
    ("commutative.verify_comm_equivalence", (SELF,)),
    ("commutative.build_prefix_code", (SELF,)),
    ("commutative.regularize", (SELF,)),
    ("cli.main", (SELF,)),
    ("cli.parse_document", (SELF,)),
    ("cli.dump_document", (SELF,)),
):
    for _stat in _stats:
        PER_LAYER["%s.%s" % (_fn, {SELF: "self_s"}.get(_stat, _stat))] = (_fn, _stat)
REGULARIZERS = ["commutative." + f for f in
                ("regularize_matrix", "regularize_etol", "edol_regularize")]
RATIOS = {
    # ratio stat -> (numerator counter suffix, denominator)
    "hit_ratio": ("hits", CALLS),
    "inexact_ratio": ("inexact", CALLS),
    "words_per_expansion": ("words", "expansions"),
}


def per_layer_units():
    units = {}
    for name, (_, stat) in PER_LAYER.items():
        units[name] = {SELF: "s/job", CALLS: "count/job"}.get(
            stat, "ratio" if stat in RATIOS else "count/job")
    for layer in MODULES:
        units[layer + ".self_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------- speed

# Reported times are scaled to a reference interpreter speed.  On a
# shared host the speed drifts (by up to 2x within minutes on a 2-vCPU
# shared Xeon), far more than the changes this benchmark has to resolve.
# Before every job the loop times a fixed pure-Python kernel (no
# workbench code), and a job's time is scaled by KERNEL_REF_S over the
# median kernel time of the WINDOW jobs around it; the kernel tracks the
# drift to within a few per cent.  The report file keeps the raw figures.
KERNEL_REF_S = 0.001
WINDOW = 15


def kernel():
    """Dict, tuple and frozenset traffic, like the library's inner loops."""
    counts = {}
    seen = set()
    for i in range(1500):
        key = (i & 7, i >> 3, i % 5)
        counts[key] = counts.get(key, 0) + 1
        seen.add(frozenset((i & 15, (i >> 2) & 15, i % 3)))
    return len(counts) + len(seen)


def kernel_time():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def rolling_median(xs, width):
    half = width // 2
    return [statistics.median(xs[max(0, i - half):i + half + 1]) for i in range(len(xs))]


# ---------------------------------------------------------------- set-up

def import_workbench():
    """A fresh import of every workbench module (so each set-up pays it)."""
    for name in [m for m in sys.modules if m == "workbench" or m.startswith("workbench.")]:
        del sys.modules[name]
    return workloads.Workbench()


def rung_size(rung):
    return int(rung.split("=")[1])


def warm_up_jobs(jobs):
    """The smallest-rung job of each kind."""
    first = {}
    for job in jobs:
        best = first.get(job.kind)
        if best is None or rung_size(job.rung) < rung_size(best.rung):
            first[job.kind] = job
    return list(first.values())


def setup(workload, seed, workdir):
    """Import, input generation, document writing and warm-up, repeated;
    returns the last set-up's modules and jobs and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed = statistics.median(kernel_time() for _ in range(WINDOW))
        t0 = time.perf_counter()
        wb = import_workbench()
        jobs = workloads.build_jobs(wb, workload, seed, workdir)
        for job in warm_up_jobs(jobs):
            workloads.call(wb, job)
        times.append((time.perf_counter() - t0) * KERNEL_REF_S / speed)
    return wb, jobs, statistics.median(times)


# ---------------------------------------------------------------- loop

class Checker:
    """Checks each job's answer once against the reference, and its output
    in every pass and in the traced run against the first, byte for byte.
    Wrong answers of jobs that carry a known defect are listed apart."""

    def __init__(self, wb):
        self.wb = wb
        self.seen = {}       # label -> (digest, reason or None)
        self.defects = {}    # label -> (cause, reason)
        self.failures = {}   # label -> reason

    def __call__(self, record):
        """The reason the record's answer is wrong, or None."""
        job, outcome = record.job, record.outcome
        d = digest(outcome)
        if job.label not in self.seen:
            self.seen[job.label] = (d, reference.check(job, outcome, self.wb.fixtures))
        first, reason = self.seen[job.label]
        if d != first or not record.stable:
            reason = self.failures[job.label] = "output differs between runs of the job"
        elif reason is not None:
            if job.defect is not None and outcome.status != "raised":
                self.defects[job.label] = (job.defect, reason)
            else:
                self.failures[job.label] = reason
        return reason


Record = collections.namedtuple("Record", "job lat raw outcome stable")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(wb, jobs, seconds, min_passes):
    """Passes over the corpus, back to back, until ``min_passes`` passes and
    ``seconds`` of job time are done.  Returns one Record per job (its
    scaled and raw times over the passes, its first outcome, and whether
    every pass produced the same output) and the peak RSS at the end of
    the loop, before the checker adds its own memory."""
    clock = time.perf_counter
    lat = [[] for _ in jobs]
    raw = [[] for _ in jobs]
    first = [None] * len(jobs)
    digests = [set() for _ in jobs]
    busy = 0.0
    passes = 0
    while passes < min_passes or busy < seconds:
        times, speeds = [], []
        for i, job in enumerate(jobs):
            # start each job with no garbage left by the one before
            gc.collect()
            speeds.append(kernel_time())
            t0 = clock()
            result = workloads.call(wb, job)
            dt = clock() - t0
            times.append(dt)
            outcome = workloads.describe(wb, job, result)
            digests[i].add(digest(outcome))
            if first[i] is None:
                first[i] = outcome
        for i, speed in enumerate(rolling_median(speeds, WINDOW)):
            raw[i].append(times[i])
            lat[i].append(times[i] * KERNEL_REF_S / speed)
        busy += sum(times)
        passes += 1
    records = [Record(job, lat[i], raw[i], first[i], len(digests[i]) == 1)
               for i, job in enumerate(jobs)]
    return records, peak_rss_mb()


def digest(outcome):
    return hashlib.sha256(outcome.text.encode()).hexdigest()


def end_to_end(records, reasons, peak_mb, setup_s, field="lat"):
    """Each job's latency is its median over the passes, which keeps a
    burst of machine noise inside one pass out of the figures."""
    lat = [statistics.median(getattr(r, field)) for r in records]
    n = len(lat)
    deciles = statistics.quantiles(lat, n=10)
    return {
        "jobs_per_s": n / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p90_ms": deciles[8] * 1e3,
        "exact_ratio": sum(r.outcome.status in ("ok", "precondition") for r in records) / n,
        "error_ratio": sum(reason is not None for reason in reasons) / n,
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
    }


def curve(records):
    """Median job time per ladder rung, in ms, smallest rung first."""
    by = {}
    for r in records:
        by.setdefault((r.job.kind, r.job.rung), []).append(statistics.median(r.lat))
    return [
        {"kind": kind, "rung": rung, "jobs": len(v), "median_ms": statistics.median(v) * 1e3}
        for (kind, rung), v in sorted(by.items(), key=lambda kv: (kv[0][0], rung_size(kv[0][1])))
    ]


def layer_metrics(tracer, n_jobs, traced_s, overhead):
    st, calls, counts = tracer.self_time, tracer.calls, tracer.counts
    out = {}
    for name, (fn, stat) in PER_LAYER.items():
        fns = REGULARIZERS if fn == "commutative.regularize" else [fn]
        if stat == SELF:
            v = sum(st.get(f, 0.0) for f in fns)
        elif stat == CALLS:
            v = sum(calls.get(f, 0) for f in fns)
        elif stat in RATIOS:
            num, den = RATIOS[stat]
            d = calls.get(fn, 0) if den == CALLS else counts.get("%s.%s" % (fn, den), 0)
            out[name] = counts.get("%s.%s" % (fn, num), 0) / d if d else 0.0
            continue
        else:
            v = counts.get("%s.%s" % (fn, stat), 0)
        out[name] = v / n_jobs
    mods = tracer.module_self_time()
    for layer in MODULES:
        out[layer + ".self_share"] = mods.get(layer, 0.0) / traced_s
    out["trace.overhead_ratio"] = overhead
    return out


def environment(workload, seed, seconds, trace):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, 1 client, 1 process, no threads",
        "timing": "per-process only (perf_counter, getrusage of this process); "
                  "no system-wide tracing, no cache dropping, no cgroup changes",
        "scaling": "job and set-up times x %g s / median time of a fixed pure-Python "
                   "kernel over the %d jobs around each job" % (KERNEL_REF_S, WINDOW),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "workbench", "__init__.py")):
        print("bench: no workbench sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    try:
        wb, jobs, setup_s = setup(args.workload, args.seed, workdir)
        # the corpus lives for the whole run: keep the collector off it
        gc.collect()
        gc.freeze()
        result = measure(args, wb, jobs, setup_s, stem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def measure(args, wb, jobs, setup_s, stem):
    """Run the loop (traced or not) on a set-up corpus; returns the result
    object and writes the full report next to ``stem``."""
    checker = Checker(wb)
    if args.trace:
        with Tracer() as tracer:
            traced, _ = run_passes(wb, jobs, args.seconds / 2, 1)
        passes = len(traced[0].lat)
        records, _ = run_passes(wb, jobs, 0, passes)
        for r in traced:
            checker(r)
        reasons = [checker(r) for r in records]
        metrics = layer_metrics(tracer, len(jobs) * passes,
                                sum(sum(r.raw) for r in traced),
                                sum(sum(r.lat) for r in traced) / sum(sum(r.lat) for r in records))
        tracer.write(stem + "-spans.json")
        raw_metrics = {}
        units = per_layer_units()
    else:
        records, peak_mb = run_passes(wb, jobs, args.seconds, MIN_PASSES)
        reasons = [checker(r) for r in records]
        metrics = end_to_end(records, reasons, peak_mb, setup_s)
        raw_metrics = end_to_end(records, reasons, peak_mb, setup_s, "raw")
        units = dict(END_TO_END)
    runs = sum(len(r.lat) for r in records)
    report = {
        "environment": environment(args.workload, args.seed, args.seconds, args.trace),
        "jobs": len(records),
        "passes": runs // len(records),
        "pass_s": [sum(r.lat[p] for r in records) for p in range(runs // len(records))],
        "unscaled_pass_s": [sum(r.raw[p] for r in records) for p in range(runs // len(records))],
        "curve": curve(records),
        "known_defects": {k: {"cause": c, "observed": r} for k, (c, r) in checker.defects.items()},
        "failures": checker.failures,
        "metrics": metrics,
        "unscaled_metrics": raw_metrics,
    }
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1, default=str)
    print_report(report)
    return {
        "correct": not checker.failures,
        "attempted": runs,
        "failed": sum(len(r.lat) for r in records if r.job.label in checker.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def print_report(report):
    for k, v in report["environment"].items():
        print("env %s: %s" % (k, v))
    print("samples: %d jobs x %d passes; latency = median over passes"
          % (report["jobs"], report["passes"]))
    for row in report["curve"]:
        print("curve %-10s %-9s jobs=%-5d median_ms=%.3f" % (
            row["kind"], row["rung"], row["jobs"], row["median_ms"]))
    for label, d in report["known_defects"].items():
        print("known defect %s: %s [%s]" % (label, d["cause"], d["observed"]))
    for label, reason in report["failures"].items():
        print("FAILED %s: %s" % (label, reason))


if __name__ == "__main__":
    sys.exit(main())
