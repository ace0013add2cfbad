"""Benchmark for linkgroup: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus_report --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory, serially (workers=1, LINKGROUP_THREADS removed).  With
--trace 0 a run repeats passes over the seed's input set while the next pass
is expected to end within --seconds (always at least one pass) and prints the
end-to-end metrics.  With --trace 1 it runs every item once untraced and once
traced and prints the per-layer metrics.  Every output is checked.  The last
line of standard output is the JSON result; the exit code is 1 when an output
is wrong and 2 when the package cannot be found.
"""

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5

# set-up as a fresh process pays it: import, catalog, every group's tables;
# the reference is sampled during it, as during a pass but more often
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[2])
from run import PROBE_INTERVAL, SpeedSampler
with SpeedSampler(PROBE_INTERVAL) as sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import linkgroup
    catalog = linkgroup.load_catalog()
    for group in catalog.groups:
        group.tables()
        group.conjugacy_solutions()
    t1 = time.perf_counter()
if not linkgroup.__file__.startswith(sys.argv[1]):
    raise SystemExit("linkgroup was imported from outside " + sys.argv[1])
print(*sampler.normalize(t0, t1))
"""

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("item_p50_ref", "ref"),
    ("peak_rss_mb", "MB"),
)

# The *_ref metrics count item time in units of one run of a fixed computation
# (reference_seconds).  A timer signal runs it every SAMPLE_INTERVAL seconds
# during a pass, and each item's time, less the samples taken inside it, is
# divided by the mean sample time around it.  The CPU speed of a shared
# machine can change by half within minutes; the ratio cancels that, and the
# seconds are still printed.
REFERENCE_STEPS = 3000
SAMPLE_INTERVAL = 0.1
PROBE_INTERVAL = 0.025
# setup_s is set-up time in reference units, stated in seconds at a fixed
# scale: one unit is this many seconds, the reference's median time in the
# fast regime of the 2-core container the benchmark was tuned on
REFERENCE_NOMINAL_S = 0.0025

LAYER_TIMES = (  # (metric, span name, self or total time)
    ("diagrams.parse_s", "diagrams.parse", 0),
    ("diagrams.blackboardize_s", "diagrams.blackboardize", 0),
    ("presentations.fundamental_group_s", "presentations.fundamental_group", 0),
    ("presentations.tietze_simplify_s", "presentations.tietze_simplify", 0),
    ("homology.first_homology_s", "homology.first_homology", 0),
    ("quotients.count_homs_s", "quotients.count_homs", 0),
    ("quotients.low_index_s", "quotients.low_index", 0),
    ("quotients.profile_self_s", "quotients.profile", 0),
    ("quotients.verify_witness_s", "quotients.verify_witness", 1),
)

LAYER_COUNTS = (
    "diagrams.calls", "diagrams.crossings",
    "presentations.tietze_simplify_calls", "presentations.gens_in",
    "presentations.gens_out", "presentations.relator_letters_out",
    "homology.first_homology_calls", "homology.matrix_cells",
    "quotients.count_homs_calls", "quotients.homs_found", "quotients.count_homs_flagged",
    "quotients.low_index_calls", "quotients.subgroups_found", "quotients.low_index_flagged",
    "quotients.verify_witness_calls",
)


def fail(message, code):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


def setup_probe():
    """(seconds, reference units) of set-up in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, SRC, HERE],
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        fail("set-up probe failed: %s" % done.stderr.strip(), 2)
    seconds, units = done.stdout.split()[-2:]
    return float(seconds), float(units)


def load_package():
    """Import linkgroup from the checkout and build every catalog table."""
    if not os.path.isfile(os.path.join(SRC, "linkgroup", "__init__.py")):
        fail("no package source at %s" % SRC, 2)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import linkgroup
    t1 = time.perf_counter()
    catalog = linkgroup.load_catalog()
    t2 = time.perf_counter()
    for group in catalog.groups:
        group.tables()
        group.conjugacy_solutions()
    t3 = time.perf_counter()
    if not os.path.abspath(linkgroup.__file__).startswith(SRC + os.sep):
        fail("linkgroup was imported from %s, not the checkout" % linkgroup.__file__, 2)
    return linkgroup, catalog, {"permgroups.load_catalog_s": t2 - t1,
                                "permgroups.tables_s": t3 - t2}


def timed(workload, item):
    """(seconds, output, traceback text or None) of one item."""
    t0 = time.perf_counter()
    try:
        output, error = workload.run(item), None
    except Exception:  # an item that raises is a failed item; keep going
        output, error = None, traceback.format_exc()
    return time.perf_counter() - t0, output, error


def verify(workload, results):
    """Check a pass's [(item, timed result)]; returns (attempted, failed, decisive)."""
    problems, outputs = [], {}
    for item, (_, output, error) in results:
        item_id = workload.item_id(item)
        if error:
            problems.append((item_id, error))
        else:
            outputs[item_id] = output
            problems.extend((item_id, p) for p in workload.check(item, output))
    attempted, decisive = len(results), None
    if len(outputs) == attempted:
        extra, report_problems, decisive = workload.finish(outputs)
        attempted += extra
        problems.extend(("report", p) for p in report_problems)
    for item_id, p in problems:
        sys.stderr.write("FAIL %s: %s\n" % (item_id, p))
    return attempted, len({item_id for item_id, _ in problems}), decisive


def reference_seconds():
    """Time of a fixed pure-Python computation: the unit of the *_ref metrics.

    The collector is off while it runs, so its allocations never start a
    collection that would scan, and charge to the reference, the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        word = tuple((i % 7, 1 - 2 * (i % 2)) for i in range(40))
        seen = {}
        for i in range(REFERENCE_STEPS):
            k = i % 40
            rotated = word[k:] + word[:k]
            seen[rotated[:3]] = [x for x in rotated[:6] if x[1] > 0]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Runs reference_seconds on entry, on exit and from a timer signal in
    between; keeps each sample's (start, end)."""

    def __init__(self, interval=SAMPLE_INTERVAL):
        self.interval = interval
        self.samples = []

    def sample(self, *signal_args):
        t0 = time.perf_counter()
        self.samples.append((t0, t0 + reference_seconds()))

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sample()

    def normalize(self, start, end):
        """(seconds, reference units) of the program's time in [start, end]."""
        inside = [b - a for a, b in self.samples if start <= a < end]
        near = [b - a for a, b in self.samples
                if start - self.interval <= a < end + self.interval] or [b - a for a, b in self.samples]
        seconds = end - start - sum(inside)
        return seconds, seconds * len(near) / sum(near)


def run_pass(workload):
    """One timed pass over the input set; checks run after the timed region."""
    started = time.perf_counter()
    stamps, results = [], []
    with SpeedSampler() as sampler:
        for item in workload.items():
            t0 = time.perf_counter()
            results.append((item, timed(workload, item)))
            stamps.append((t0, time.perf_counter()))
    elapsed = time.perf_counter() - started
    times, norm = zip(*(sampler.normalize(a, b) for a, b in stamps))
    attempted, failed, _ = verify(workload, results)
    return {"elapsed": elapsed, "times": times, "norm": norm,
            "refs": [b - a for a, b in sampler.samples],
            "attempted": attempted, "failed": failed}


def end_to_end(workload, seconds):
    probes = [setup_probe() for _ in range(SETUP_PROBES)]
    passes = []
    started = time.perf_counter()
    # start another pass only while it is expected to end within the budget
    while not passes or (time.perf_counter() - started
                         + statistics.median(p["elapsed"] for p in passes)) <= seconds:
        passes.append(run_pass(workload))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    item_norm = [t for p in passes for t in p["norm"]]
    values = {
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(u for _, u in probes),
        "wall_ref": statistics.median(sum(p["norm"]) for p in passes),
        "item_p50_ref": statistics.median(item_norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("# %d pass(es), %d item timings; setup_s is the median of %d fresh processes"
          % (len(passes), len(item_norm), SETUP_PROBES))
    print("# in seconds: wall_s %.4f, item_p50_s %.4f, reference_s %.4f, setup_s %.4f" % (
        statistics.median(sum(p["times"]) for p in passes),
        statistics.median(t for p in passes for t in p["times"]),
        statistics.median(r for p in passes for r in p["refs"]),
        statistics.median(e for e, _ in probes)))
    return values, dict(END_TO_END), attempted, failed


def ratio(num, den):
    return num / den if den else 0.0


def traced(workload, lg, catalog, setup_times, seed):
    """Per-layer metrics from one pass in which every item runs twice: untraced,
    then traced right after, so the overhead ratio compares like with like."""
    import spans

    tracer = spans.Tracer()
    base, result = [], []
    for item in workload.items():
        base.append((item, timed(workload, item)))
        tracer.item = workload.item_id(item)
        tracer.install(lg)
        try:
            result.append((item, timed(workload, item)))
        finally:
            tracer.uninstall()
    base_wall = sum(r[0] for _, r in base)
    traced_wall = sum(r[0] for _, r in result)
    base_attempted, base_failed, _ = verify(workload, base)
    attempted, failed, decisive = verify(workload, result)
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, "%s-seed%d.spans.jsonl" % (workload.name, seed)))

    times = tracer.self_times()
    counts = tracer.counts
    values, units = dict(setup_times), {k: "s" for k in setup_times}
    for metric, span_name, total in LAYER_TIMES:
        values[metric] = times.get(span_name, (0.0, 0.0))[total]
        units[metric] = "s"
    for group in catalog.groups:
        metric = "quotients.count_homs_s." + spans.metric_suffix(group.name)
        values[metric] = counts.get("count_homs_s:" + group.name, 0.0)
        units[metric] = "s"
    for metric in LAYER_COUNTS:
        values[metric] = counts.get(metric, 0)
        units[metric] = "count"
    decisive, computed = decisive or (0, 0)
    values["quotients.witness_ok_ratio"] = ratio(counts.get("quotients.witness_ok", 0),
                                                 counts.get("quotients.verify_witness_calls", 0))
    values["quotients.decisive_entry_ratio"] = ratio(decisive, computed)
    values["trace.overhead_ratio"] = ratio(traced_wall, base_wall)
    values["trace.spans"] = len(tracer.spans)
    for metric in ("quotients.witness_ok_ratio", "quotients.decisive_entry_ratio",
                   "trace.overhead_ratio"):
        units[metric] = "ratio"
    units["trace.spans"] = "count"
    print("# items traced %.3f s, untraced %.3f s; %d spans; decisive entries %d of %d"
          % (traced_wall, base_wall, len(tracer.spans), decisive, computed))
    for metric, _, _ in LAYER_TIMES:
        print("# share of traced item time: %-36s %5.1f%%"
              % (metric, 100.0 * ratio(values[metric], traced_wall)))
    return values, units, base_attempted + attempted, base_failed + failed


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few items only, for smoke tests")
    args = parser.parse_args(argv)
    os.environ.pop("LINKGROUP_THREADS", None)

    lg, catalog, setup_times = load_package()
    workload = WORKLOADS[args.workload](lg, catalog, args.seed, args.tiny, SRC)
    if args.trace:
        values, units, attempted, failed = traced(workload, lg, catalog, setup_times, args.seed)
    else:
        values, units, attempted, failed = end_to_end(workload, args.seconds)
    for name, value in values.items():
        print("# %-40s %14.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
