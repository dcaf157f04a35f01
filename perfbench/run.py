"""Benchmark for marswpt: run one named workload, check its outputs, print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Workloads are ``presets``, ``link_1e6`` and ``fit`` (see README.md in this
directory). The seed makes the workload's inputs; ``--seconds`` is how long
the passes repeat; ``--trace 1`` installs the per-layer spans and reports
per-layer metrics instead of end-to-end ones. Every metric is printed on its
own ``metric`` line; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the workload's headline metrics.
The exit code is 0 when every op passed its checks, 1 when any op failed,
and 2 when the program cannot be imported from ``src/`` next to this
directory. The run record and, with ``--trace 1``, the spans are written to
``.perfbench_out/`` at the root of the repository.

The benchmark is one closed-loop caller: each pass starts when the previous
one and its checks have finished. Passes alternate between ``n_workers=1``
and ``n_workers=nproc``; the benchmark itself starts no thread or process.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from tracer import percentile_ms  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

UNITS = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "trials_per_s_nproc": "trials/s",
    "fits_per_s": "fits/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "cli.self_s": "s",
    "cli.csv_s": "s",
    "cli.csv_bytes": "bytes",
    "sweep.self_s": "s",
    "sweep.parallel_eff": "ratio",
    "sweep.rows": "count",
    "link.estimate_s": "s",
    "link.samples_s": "s",
    "link.reduce_s": "s",
    "link.channel_s": "s",
    "link.ndtri_s": "s",
    "link.budget_s": "s",
    "link.seed_s": "s",
    "link.estimate_ms_p50": "ms",
    "link.estimate_ms_p99": "ms",
    "link.trials": "count",
    "link.peak_alloc_mb": "MB",
    "harvester.eval_s": "s",
    "harvester.range_s": "s",
    "harvester.fit_s": "s",
    "harvester.fit_refine_s": "s",
    "harvester.fit_nfev": "count",
    "harvester.model_io_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.trials_per_s_untraced": "trials/s",
    "trace.trials_per_s_traced": "trials/s",
    "trace.fits_per_s_untraced": "fits/s",
    "trace.fits_per_s_traced": "fits/s",
}
for _name in "ABC":
    UNITS[f"harvester.{_name}.clamped_frac"] = "ratio"
    UNITS[f"harvester.{_name}.extrapolated_frac"] = "ratio"

# The metrics on the last line of output. The Monte Carlo workloads share
# one list so that every metric is measured on each of them; metrics only one
# workload has are still printed on ``metric`` lines and in the run record,
# as is harvester.C.clamped_frac, which reads 0 on both at every seed.
_MC_END_TO_END = ("setup_s", "trials_per_s", "trials_per_s_nproc",
                  "op_ms_p50", "op_ms_p90", "peak_rss_mb")
_MC_PER_LAYER = (
    "cli.self_s", "link.estimate_s", "link.samples_s", "link.reduce_s",
    "link.channel_s", "link.ndtri_s", "link.budget_s",
    "harvester.eval_s", "harvester.range_s",
    "link.estimate_ms_p50", "link.estimate_ms_p99", "link.trials", "link.peak_alloc_mb",
    "harvester.A.clamped_frac", "harvester.A.extrapolated_frac",
    "harvester.B.clamped_frac", "harvester.B.extrapolated_frac",
    "harvester.C.extrapolated_frac",
    "trace.overhead_frac", "trace.coverage",
)
HEADLINE = {
    ("presets", 0): _MC_END_TO_END,
    ("link_1e6", 0): _MC_END_TO_END,
    ("fit", 0): ("setup_s", "fits_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"),
    ("presets", 1): _MC_PER_LAYER,
    ("link_1e6", 1): _MC_PER_LAYER,
    ("fit", 1): ("harvester.fit_s", "harvester.fit_refine_s", "harvester.fit_nfev",
                 "harvester.model_io_s", "trace.overhead_frac", "trace.coverage"),
}


class ProgramMissing(RuntimeError):
    pass


def import_program() -> float:
    """Import marswpt from ``src/`` beside this directory; seconds since this file started."""
    if not (SRC / "marswpt" / "__init__.py").is_file():
        raise ProgramMissing(f"no marswpt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import marswpt
    import marswpt.cli  # noqa: F401

    if Path(marswpt.__file__).resolve().parent != SRC / "marswpt":
        raise ProgramMissing(f"marswpt was imported from {marswpt.__file__}, not {SRC}")
    import workloads  # noqa: F401

    return time.perf_counter() - _T0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="marswpt benchmark")
    parser.add_argument("--workload", required=True, choices=("presets", "link_1e6", "fit"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs for the benchmark's self-tests; no golden check")
    return parser.parse_args(argv)


def run_pass(wl, tracer, n_workers):
    """Run and time one pass with ``tracer`` installed, then check it outside the timing."""
    batch = wl.next_batch(n_workers)
    with tracer:
        start = time.perf_counter()
        result = wl.run(batch, tracer)
        elapsed = time.perf_counter() - start
    spans = tracer.drain()
    attempted, failed = wl.check(batch, result)
    return elapsed, spans, attempted, failed


def pass_plan(wl, nproc):
    return [("serial", 1), ("nproc", nproc)] if wl.has_nproc else [("serial", 1)]


def measure(wl, seconds, nproc):
    """Untraced passes for ``seconds``; only the op boundary is timed.

    Throughput is the work of all passes at one worker count over their
    summed time. On a shared machine whose speed drifts over seconds, this
    mean moves less from run to run than a median of passes, which jumps
    between the fast and the slow phases.
    """
    tracer = wl.tracer(full=False)
    times = {label: [] for label, _ in pass_plan(wl, nproc)}
    op_s = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for label, n_workers in pass_plan(wl, nproc):
            elapsed, spans, a, f = run_pass(wl, tracer, n_workers)
            attempted, failed = attempted + a, failed + f
            times[label].append(elapsed)
            if label == "serial":
                op_s += [s.seconds for s in spans if s.op_id == s.span_id]
        if time.perf_counter() - start >= seconds:
            break

    metrics, notes = {}, {}
    how = "{} passes at {} worker(s), {} {} each, over their summed time"
    if wl.trials_per_pass is not None:
        for key, label, n_workers in (("trials_per_s", "serial", 1),
                                      ("trials_per_s_nproc", "nproc", nproc)):
            metrics[key] = wl.trials_per_pass * len(times[label]) / sum(times[label])
            notes[key] = how.format(len(times[label]), n_workers, wl.trials_per_pass, "trials")
    else:
        metrics["fits_per_s"] = wl.fits_per_pass * len(times["serial"]) / sum(times["serial"])
        notes["fits_per_s"] = how.format(len(times["serial"]), 1, wl.fits_per_pass,
                                         "fits and model-file round trips")
    metrics["op_ms_p50"] = percentile_ms(op_s, 50)
    metrics["op_ms_p90"] = percentile_ms(op_s, 90)
    notes["op_ms_p50"] = notes["op_ms_p90"] = f"{len(op_s)} ops at 1 worker"
    return metrics, notes, attempted, failed, times


def traced(wl, seconds, nproc):
    """Alternate untraced and traced passes; per-layer metrics come from the traced ones."""
    light, full = wl.tracer(full=False), wl.tracer(full=True)
    main_thread = threading.get_ident()
    untraced_s, traced_s, coverage = [], [], []
    layers, parallel, kept = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        plan = [("untraced", light, 1), ("traced", full, 1)]
        if wl.has_nproc:
            plan.append(("traced_nproc", full, nproc))
        for label, tracer, n_workers in plan:
            elapsed, spans, a, f = run_pass(wl, tracer, n_workers)
            attempted, failed = attempted + a, failed + f
            if label == "untraced":
                untraced_s.append(elapsed)
                continue
            kept.append((len(kept), label, n_workers, spans))
            if label == "traced":
                traced_s.append(elapsed)
                layers.append(wl.layer_metrics(spans))
                roots = sum(s.seconds for s in spans
                            if s.parent_id is None and s.thread_id == main_thread)
                coverage.append(roots / elapsed)
            else:
                parallel.append(wl.parallel_metrics(spans, n_workers, main_thread))
        if time.perf_counter() - start >= seconds:
            break

    metrics = {key: median([m[key] for m in layers]) for key in layers[0]}
    if parallel and parallel[0]:
        metrics.update({key: median([m[key] for m in parallel]) for key in parallel[0]})
    metrics.update(wl.outcome_fractions())
    metrics.update(wl.counts())
    metrics["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0
    metrics["trace.coverage"] = median(coverage)
    per_pass, kind = wl.trials_per_pass, "trials"
    if per_pass is None:
        per_pass, kind = wl.fits_per_pass, "fits"
    metrics[f"trace.{kind}_per_s_untraced"] = per_pass / median(untraced_s)
    metrics[f"trace.{kind}_per_s_traced"] = per_pass / median(traced_s)
    if wl.has_nproc:
        tracemalloc.start()
        try:
            wl.warm_up()
            metrics["link.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    notes = {key: f"median of {len(traced_s)} traced passes at 1 worker" for key in layers[0]}
    return metrics, notes, attempted, failed, kept, {"untraced": untraced_s, "traced": traced_s}


def cache_sizes():
    """Cache sizes of cpu0 as the kernel reports them (read only)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[label] = size
    return sizes


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(args, wl, nproc):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "caches_read_from_sysfs": cache_sizes(),
        "array_sizes_computed": wl.computed_sizes(),
    }


def write_spans(path, kept):
    fields = ("pass", "label", "workers", "name", "start_ns", "end_ns",
              "span_id", "parent_id", "op_id", "thread_id")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(fields) + "\n")
        for index, label, n_workers, spans in kept:
            for s in spans:
                handle.write(json.dumps([index, label, n_workers, *s]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
            wl.warm_up()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + median(setups)
        record = run_record(args, wl, nproc)

        if args.trace:
            metrics, notes, attempted, failed, kept, passes = traced(wl, args.seconds, nproc)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            write_spans(spans_path, kept)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            metrics, notes, attempted, failed, passes = measure(wl, args.seconds, nproc)
            metrics["setup_s"] = setup_s
            notes["setup_s"] = (f"import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups"
                                " (build inputs, one warm-up op)")
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["pass_seconds"] = passes
        record["setup_seconds"] = {"import": import_s, "repeats": setups}
        metrics["failed_frac"] = failed / attempted
        notes["failed_frac"] = f"{failed} of {attempted} ops"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()})
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} nproc={nproc}"
          f" python={record['python']} numpy={record['numpy']} scipy={record['scipy']}"
          f" commit={record['commit']}")
    print("caches (read from sysfs, cpu0): "
          + " ".join(f"{k}={v}" for k, v in record["caches_read_from_sysfs"].items()))
    print("array sizes (computed): "
          + "; ".join(f"{k}={v}" for k, v in record["array_sizes_computed"].items()))
    for key in sorted(metrics):
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"metric {key} = {metrics[key]:.6g} {UNITS[key]}{note}")
    print(f"record {record_path.relative_to(ROOT)}")

    headline = HEADLINE[(args.workload, args.trace)]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in headline},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
