"""skypix benchmark: one seeded workload per process, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload map_pipeline --seed 1 --seconds 30 --trace 0

The run imports skypix from ``src/`` of the checkout, builds the
workload's fixtures and oracles several times (``setup_s`` is the import
time plus the median build), then forks.  The child repeats passes of the
workload's operations until ``--seconds`` have elapsed, so its
``ru_maxrss`` starts from what the fixtures hold and set-up's own
transient peak is not in ``peak_rss_mb``.  Every operation is timed on
its own and its output is checked afterwards, outside the timing.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs traced
passes, then untraced ones, and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (machine, fixtures, all
metrics with sample counts and percentiles) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` and, for traced runs,
the spans to ``.bench_out/<workload>-seed<seed>-spans.json``.
"""

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback

import spans
from spans import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
# the end-to-end metrics BENCHMARK.json lists: every workload has them and
# none is ever zero (the others are printed and kept in the record)
GATED = ("setup_s", "pass_s", "peak_rss_mb")
PAGE_CACHE_NOTE = "reads come from the page cache (see bench/README.md)"


class Terminated(BaseException):
    """Raised on SIGTERM.  Not an Exception or a SystemExit, so the handler
    around each operation (which must catch the CLI's SystemExit) lets it
    through and the run stops, removing its fixtures on the way out."""


def _terminate(signum, frame):
    raise Terminated(signum)


def nproc():
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    """Run BLAS/OpenMP on one thread, set before numpy loads: skypix is then
    single threaded, so its CPU time is the time a pass takes on a core of
    its own (see ``spans.clock``)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads():
    """Threads of each OpenBLAS library loaded into this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def import_program():
    """Import skypix from this checkout's ``src`` (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "skypix", "__init__.py")):
        sys.exit("bench: no skypix sources under %s" % SRC)
    sys.path.insert(0, SRC)
    skypix = importlib.import_module("skypix")
    if not os.path.abspath(skypix.__file__).startswith(SRC + os.sep):
        sys.exit("bench: imported skypix from %s, not %s"
                 % (skypix.__file__, SRC))
    for name in ("healpix", "fits", "rng", "geom", "frame", "cli",
                 "geostat.empirical", "geostat.models", "geostat.spectrum",
                 "geostat.measures"):
        importlib.import_module("skypix." + name)
    return skypix


def percentile_summary(samples):
    """Median, the highest of p50..p99.9 with >= 10 samples above it, n."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = int(len(ordered) * p / 100.0)   # samples at or below
        if len(ordered) - rank >= 10 and rank >= 1:
            out["p%g" % p] = ordered[rank - 1]
            break
    return out


def run_pass(workload, errors):
    """One pass: (CPU seconds in ops, {metric: CPU seconds}, wall seconds
    in ops, attempted, failed, wrong).  ``failed`` counts operations that
    raised or returned a wrong output; ``wrong`` only the latter."""
    total, by_metric, wall, failed, wrong = 0.0, {}, 0.0, 0, 0
    for op in workload.ops:
        w0 = time.perf_counter()
        t0 = clock()
        try:
            out = op.run()
            ok = True
        except (Exception, SystemExit) as exc:
            ok = False
            errors.append("%s: %s" % (op.name, "".join(
                traceback.format_exception_only(type(exc), exc)).strip()))
        dt = clock() - t0
        wall += time.perf_counter() - w0
        total += dt
        by_metric[op.metric] = by_metric.get(op.metric, 0.0) + dt
        if ok:
            try:
                op.check(out)
            except Exception as exc:
                ok = False
                wrong += 1
                errors.append("%s: wrong output: %s" % (op.name, exc))
        failed += not ok
    return total, by_metric, wall, len(workload.ops), failed, wrong


def run_passes(workload, seconds, errors):
    """Passes until ``seconds`` of wall time have elapsed: (passes,
    [attempted, failed, wrong])."""
    passes = []
    counts = [0, 0, 0]
    deadline = time.perf_counter() + seconds
    while True:
        t0 = clock()
        total, by_metric, wall, *done = run_pass(workload, errors)
        passes.append({"pass_s": total, "pass_wall_s": wall, "start": t0,
                       "end": clock(), **by_metric})
        counts = [c + d for c, d in zip(counts, done)]
        if time.perf_counter() >= deadline:
            return passes, counts


def release_freed_memory():
    """Collect garbage and hand freed heap pages back to the system, so
    the resident set a forked child starts with is what is still held."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def measure(args, sp, wl, numpy, scipy, setup):
    """The timed part of a run, in the forked child: passes, metrics, the
    record and the result line.  ``setup`` holds the parent's figures."""
    import layers
    import workloads

    start_rss_mb = spans.maxrss_mb()
    errors = []
    tracer = None
    traced = []
    counts = [0, 0, 0]
    if args.trace:
        tracer = spans.Tracer()
        spec = layers.instrument(tracer, sp)
        try:
            traced, counts = run_passes(wl, args.seconds / 2, errors)
        finally:
            tracer.restore()
        passes, more = run_passes(wl, args.seconds / 2, errors)
        counts = [c + d for c, d in zip(counts, more)]
    else:
        passes, counts = run_passes(wl, args.seconds, errors)
    peak_rss_mb = spans.maxrss_mb()
    attempted, failed, wrong = counts

    threads = blas_threads()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": nproc(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "blas_threads": threads,
                    "blas_threads_within_nproc": all(
                        t <= nproc() for t in threads.values())},
        "fixtures": wl.fixtures,
        "notes": [PAGE_CACHE_NOTE],
        "setup_runs_s": setup["runs_s"], "import_s": setup["import_s"],
        "observed": wl.observed,
        "errors": errors[:50],
    }

    def timed(key):
        entry = percentile_summary([p.get(key, 0.0) for p in passes])
        return dict(entry, value=entry.pop("median"), unit="s")

    end_to_end = {
        "setup_s": {"value": setup["import_s"] + statistics.median(
            setup["runs_s"]), "unit": "s", "n": SETUP_REPEATS},
        "pass_s": timed("pass_s"),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "error_rate": {"value": failed / attempted, "unit": "ratio",
                       "failed": failed, "wrong": wrong,
                       "attempted": attempted},
    }
    for metric in workloads.OP_METRICS[args.workload]:
        end_to_end[metric] = timed(metric)
    end_to_end["pass_wall_s"] = timed("pass_wall_s")
    # peak_rss_mb is measured from start_rss_mb; set-up's own peak is
    # kept beside them to show that it is not in the gated figure
    end_to_end["start_rss_mb"] = {"value": start_rss_mb, "unit": "MB"}
    end_to_end["setup_peak_rss_mb"] = {"value": setup["peak_rss_mb"],
                                       "unit": "MB"}
    record["end_to_end"] = end_to_end

    if args.trace:
        name = "%s-seed%d-spans.json" % (args.workload, args.seed)
        tracer.write(os.path.join(OUT, name))
        layer = layers.per_layer(spec, tracer.totals(), len(traced))
        traced_pass = statistics.median(p["pass_s"] for p in traced)
        layer["trace.overhead_s"] = (traced_pass - end_to_end["pass_s"]["value"],
                                     "s")
        covered = sum(tracer.top_level_seconds(p["start"], p["end"])
                      for p in traced)
        layer["trace.top_level_coverage"] = (
            covered / sum(p["pass_s"] for p in traced), "ratio")
        layer["geostat.empirical.max_abs_dev"] = (
            wl.observed.get("geostat.empirical.max_abs_dev", 0.0), "gamma")
        record["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layer.items()}
        record["traced_passes"] = len(traced)
        record["untraced_passes"] = len(passes)
        reported = record["per_layer"]
    else:
        reported = {k: {"value": end_to_end[k]["value"],
                        "unit": end_to_end[k]["unit"]} for k in GATED}

    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    print("workload %s seed %d: %d passes (%d traced), %d ops, %d failed, "
          "%d wrong" % (args.workload, args.seed, len(passes) + len(traced),
                        len(traced), attempted, failed, wrong))
    print("machine %s" % json.dumps(record["machine"], sort_keys=True))
    print("fixtures %s" % json.dumps(wl.fixtures, sort_keys=True))
    print("note: %s" % PAGE_CACHE_NOTE)
    for metric, entry in end_to_end.items():
        extra = " ".join("%s=%.6g" % (k, v) for k, v in entry.items()
                         if k not in ("value", "unit"))
        print("  %-17s %14.6g %-5s %s" % (metric, entry["value"],
                                          entry["unit"], extra))
    if args.trace:
        for metric, entry in record["per_layer"].items():
            print("  %-52s %14.6g %s" % (metric, entry["value"],
                                         entry["unit"]))
    for line in errors[:10]:
        print("error: %s" % line)
    # correct: every output that came back matched its oracle.  An
    # operation that raised has no output to check; it counts in failed.
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("map_pipeline", "catalog_hp", "lazy_io"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    pin_blas_threads()
    t0 = clock()
    import numpy
    import scipy
    sp = import_program()
    import_s = clock() - t0

    import workloads

    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    child = 0
    try:
        wl = workloads.WORKLOADS[args.workload](sp, args.seed, workdir)
        runs_s = []
        for _ in range(SETUP_REPEATS):
            wl.ops = []    # drop the previous build before the next one
            release_freed_memory()
            t1 = clock()
            wl.setup()
            runs_s.append(clock() - t1)
        setup = {"import_s": import_s, "runs_s": runs_s,
                 "peak_rss_mb": spans.maxrss_mb()}
        release_freed_memory()
        sys.stdout.flush()
        sys.stderr.flush()
        child = os.fork()
        if child == 0:
            code = 1
            try:
                code = measure(args, sp, wl, numpy, scipy, setup)
            except Terminated:
                code = 128 + signal.SIGTERM
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(child, 0)
        child = 0
        code = os.waitstatus_to_exitcode(status)
        return code if code >= 0 else 128 - code
    finally:
        if child:
            os.kill(child, signal.SIGTERM)
            os.waitpid(child, 0)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
