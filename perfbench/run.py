"""The repository's seeded benchmark: cold, streaming and served enrichment.

One run::

    python3 perfbench/run.py --workload cold|stream|served --seed N \\
        --seconds S --trace 0|1

prints a human-readable report and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``E2E``), measured
with no wrapper installed; with ``--trace 1`` they are the per-layer
ones (``per_layer_specs``), measured by wrapping each ``repro.*`` layer
from the outside (see ``tracer.py``).  ``--rung S|M|L`` runs ``cold``
and ``stream`` on another rung of the scenario ladder (the self-test
uses S).

End-to-end times are the seconds each op would take at a fixed
reference host speed, from a host-speed meter that runs through every
run (see ``hostspeed.py``); the report prints wall seconds beside them.
Per-layer times are wall seconds.

All three workloads, untraced then traced, then every metric under its
workload-specific name (``NAMED_METRICS``)::

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--rung R]

Runs write scratch files under ``.perfbench/`` at the checkout root and
keep their result and span files there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

WORKLOADS = ("cold", "stream", "served")

#: End-to-end metrics every workload reports: (name, unit, better).
#: ``workloads.ROLE_NAMES`` names the timings on each workload.
E2E = [
    ("setup_s", "s", "lower"),
    ("enrich_s", "s", "lower"),
    ("arrival_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Every end-to-end metric under its workload-specific name, with the
#: ones the uniform ``E2E`` set cannot carry: the served recommendation
#: latencies, the quality ratios (exact, but they differ by more than
#: any bound across seeds) and the failure ratio (0 when all is well).
#: (name, workloads, unit, better)
NAMED_METRICS = [
    ("setup_s", WORKLOADS, "s", "lower"),
    ("cold_s", ("cold",), "s", "lower"),
    ("warm_s", ("stream",), "s", "lower"),
    ("delta_s", ("stream",), "s", "lower"),
    ("job_s", ("served",), "s", "lower"),
    ("feed_delta_s", ("served",), "s", "lower"),
    ("recommend_p50_ms", ("served",), "ms", "lower"),
    ("recommend_p95_ms", ("served",), "ms", "lower"),
    ("candidate_precision", ("cold",), "ratio", "higher"),
    ("link_p_at_10", ("cold",), "ratio", "higher"),
    ("sense_accuracy", ("cold",), "ratio", "higher"),
    ("peak_rss_mb", WORKLOADS, "MB", "lower"),
    ("fail_ratio", WORKLOADS, "ratio", "lower"),
]
QUALITY = ("candidate_precision", "link_p_at_10", "sense_accuracy")


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Per-layer metrics (name, unit, better), reported by traced runs."""
    from tracer import COUNTED_CALLS, LAYER_COUNTERS, LAYER_TARGETS

    specs = []
    for stem in dict.fromkeys(stem for stem, _, _ in LAYER_TARGETS):
        specs += [(f"{stem}.s", "s", "lower"), (f"{stem}.self_s", "s", "lower")]
        if stem in COUNTED_CALLS:
            specs.append((f"{stem}.calls", "count", "lower"))
    specs += [(name, "count", "lower") for name, _ in LAYER_COUNTERS]
    specs += [
        ("linkage.cooccurrence.docs", "count", "lower"),
        ("workflow.carry_forward.s", "s", "lower"),
        ("workflow.changed_terms", "count", "lower"),
        ("polysemy.cache.hits", "count", "higher"),
        ("polysemy.cache.misses", "count", "lower"),
        ("polysemy.cache.hit_ratio", "ratio", "higher"),
        ("service.job_wait.s", "s", "lower"),
        ("service.job_run.s", "s", "lower"),
        ("service.recommend_p50_ms", "ms", "lower"),
        ("service.recommend_p95_ms", "ms", "lower"),
        *((f"quality.{name}", "ratio", "higher") for name in QUALITY),
        ("trace.enrich_coverage", "ratio", "higher"),
    ]
    return specs


def machine_stamp() -> dict:
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": git_sha(),
    }


def git_sha() -> str:
    """HEAD's sha read from ``.git`` (no git process), or ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result_path(args, workload: str, trace: int) -> Path:
    rung = args.rung or "default"
    name = f"{workload}-seed{args.seed}-{args.seconds}s-{rung}-trace{trace}.json"
    return STATE / "results" / name


# -- one run -----------------------------------------------------------------


def run_one(args) -> int:
    import workloads
    from hostspeed import REFERENCE_PROBE_S, HostMeter, at_reference_speed
    from tracer import (
        Tracer,
        enrich_coverage,
        layer_totals,
        shares_by_op,
        spans_from_records,
        to_records,
    )

    rung_name = workloads.DEFAULT_RUNGS[args.workload]
    if args.rung and args.workload != "served":
        rung_name = args.rung
    tracer = Tracer()
    if args.trace:
        tracer.install()
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE / "work"))
    run = workloads.Run(
        seed=args.seed,
        seconds=args.seconds,
        rung=workloads.RUNGS[rung_name],
        tracer=tracer,
        trace=bool(args.trace),
        workdir=workdir,
    )
    meter = HostMeter()
    meter.start()
    try:
        getattr(workloads, args.workload)(run)
    finally:
        meter.stop()
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    probes = meter.samples + run.child_probes
    # The served child does all the work of a served op, on a CPU of its
    # own, so only its probes time those ops; set-up runs in both.
    op_probes = run.child_probes or meter.samples
    e2e = e2e_values(
        run,
        setup=lambda interval: at_reference_speed(interval, probes),
        ops=lambda interval: at_reference_speed(interval, op_probes),
    )
    # TEMPDUMP
    (STATE / "dump").mkdir(parents=True, exist_ok=True)
    (STATE / "dump" / f"{args.workload}-{args.seed}.json").write_text(json.dumps({"own": meter.samples, "child": run.child_probes, "intervals": run.intervals, "setup": run.setup_parts}))
    probe_s = statistics.median(seconds for _, seconds in probes)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rung": rung_name,
        "trace": args.trace,
        "machine": machine_stamp(),
        "host_speed": {
            "probes": len(probes),
            "median_probe_s": probe_s,
            "reference_probe_s": REFERENCE_PROBE_S,
        },
        "e2e": e2e,
        "e2e_wall": e2e_values(run, setup=wall_seconds, ops=wall_seconds),
        "named": named_values(args.workload, run, e2e),
        "samples": {kind: len(values) for kind, values in run.samples.items()},
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
    }
    print_run(result)
    if args.trace:
        spans = list(tracer.spans)
        counters = dict(tracer.counters)
        if run.child_spans is not None:
            child = spans_from_records(run.child_spans)
            spans += [span for span in child if span.start >= run.timed_from]
            for name, count in run.child_spans["counters"].items():
                counters[name] = counters.get(name, 0) + count
        coverage = enrich_coverage(spans)
        result["per_layer"] = per_layer_values(
            run, result["named"], layer_totals(spans), counters, coverage
        )
        print_layers(shares_by_op(spans), coverage)
        print_overhead(args, result)
        trace_path = STATE / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(to_records(spans, counters)))
        values, specs = result["per_layer"], per_layer_specs()
    else:
        values, specs = e2e, E2E
    path = result_path(args, args.workload, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    line = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


def wall_seconds(interval: tuple[float, float]) -> float:
    return interval[1] - interval[0]


def e2e_values(run, *, setup, ops) -> dict[str, float]:
    """``E2E`` with each (start, end) interval of set-up timed by
    ``setup`` and each op's by ``ops``.

    ``setup_s`` adds up the set-up parts, each the median of its repeats.
    """
    for kind in ("enrich", "arrival"):
        if not run.intervals[kind]:
            raise SystemExit(f"every {kind} op failed: {run.failures}")

    def median(intervals, seconds) -> float:
        return statistics.median([seconds(interval) for interval in intervals])

    return {
        "setup_s": sum(median(part, setup) for part in run.setup_parts),
        "enrich_s": median(run.intervals["enrich"], ops),
        "arrival_s": median(run.intervals["arrival"], ops),
        "peak_rss_mb": run.peak_rss_mb,
    }


def named_values(workload: str, run, e2e: dict) -> dict[str, float]:
    """This workload's ``NAMED_METRICS``."""
    import workloads

    values = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"]}
    for role, name in workloads.ROLE_NAMES[workload].items():
        values[name] = e2e[role]
    latencies = sorted(run.samples.get("recommend", []))
    if latencies:
        values["recommend_p50_ms"] = 1000 * statistics.median(latencies)
        # The 95th percentile by nearest rank.
        rank = math.ceil(0.95 * len(latencies))
        values["recommend_p95_ms"] = 1000 * latencies[rank - 1]
    for name in QUALITY:
        if name in run.quality:
            values[name] = run.quality[name]
    values["fail_ratio"] = run.failed / max(run.attempted, 1)
    return values


def per_layer_values(run, named: dict, totals: dict, counters: dict, coverage) -> dict:
    """Span totals, counters and report-derived values, by metric name."""
    values = {
        name: totals.get(name, 0.0) + counters.get(name, 0) + run.layer.get(name, 0)
        for name, _, _ in per_layer_specs()
    }
    hits, misses = run.layer["polysemy.cache.hits"], run.layer["polysemy.cache.misses"]
    values["polysemy.cache.hit_ratio"] = hits / max(hits + misses, 1)
    for name in ("recommend_p50_ms", "recommend_p95_ms"):
        values[f"service.{name}"] = named.get(name, 0.0)
    for name in QUALITY:
        values[f"quality.{name}"] = run.quality.get(name, 0.0)
    values["trace.enrich_coverage"] = min(coverage) if coverage else 0.0
    return values


# -- printing ----------------------------------------------------------------


def print_run(result: dict) -> None:
    import workloads

    machine = " ".join(f"{key}={value}" for key, value in result["machine"].items())
    print(
        f"perfbench {result['workload']}: seed={result['seed']} "
        f"seconds={result['seconds']} rung={result['rung']} trace={result['trace']}"
    )
    print(f"machine: {machine}")
    if result["workload"] == "served":
        interval = workloads.POLL_SECONDS * 1000
        print(f"job_s and feed_delta_s poll GET /jobs/<id> every {interval:g} ms")
    samples = result["samples"]
    counts = {
        "setup_s": workloads.SETUP_REPEATS,
        "enrich_s": samples.get("enrich"),
        "arrival_s": samples.get("arrival"),
        "recommend_p50_ms": samples.get("recommend"),
        "recommend_p95_ms": samples.get("recommend"),
    }
    speed = result["host_speed"]
    print(
        f"host speed: median probe {1e6 * speed['median_probe_s']:.0f} us "
        f"({speed['probes']} probes); e2e times are at the reference "
        f"{1e6 * speed['reference_probe_s']:.0f} us per probe, wall times beside them"
    )
    roles = workloads.ROLE_NAMES[result["workload"]]
    print(
        f"  {'metric':<20} {'value':>12}  {'unit':<6} {'better':<7} {'n':>4}  "
        f"{'wall':>10}  name"
    )
    for name, unit, better in E2E:
        value, count = result["e2e"][name], counts.get(name, "")
        wall = f"{result['e2e_wall'][name]:>10.4f}" if unit == "s" else " " * 10
        print(
            f"  {name:<20} {value:>12.4f}  {unit:<6} {better:<7} {count:>4}  "
            f"{wall}  {roles.get(name, name)}"
        )
    shown = set(roles.values()) | {name for name, _, _ in E2E}
    for name, workloads_, unit, better in NAMED_METRICS:
        if result["workload"] in workloads_ and name not in shown:
            value, count = result["named"][name], counts.get(name, "")
            print(
                f"  {name:<20} {value:>12.4f}  {unit:<6} {better:<7} {count:>4}  "
                f"{'':>10}  {name}"
            )
    print(f"  ({result['failed']} of {result['attempted']} ops failed)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def print_layers(by_op: dict, coverage: list[float]) -> None:
    for kind, entry in sorted(by_op.items()):
        ops, total = entry["ops"], entry["s"]
        print(f"  layers in op '{kind}': {ops} ops, {total / ops:.4f} s per op")
        header = f"{'span':<34} {'s/op':>10} {'share':>7} {'self s/op':>10} {'self':>7}"
        print(f"    {header}")
        for name, seconds in sorted(entry["layers"].items(), key=lambda item: -item[1]):
            own = entry["self"][name]
            print(
                f"    {name:<34} {seconds / ops:>10.4f} {100 * seconds / total:>6.1f}% "
                f"{own / ops:>10.4f} {100 * own / total:>6.1f}%"
            )
    if coverage:
        print(
            "  stage spans (index, train, extract, detect, induce, link) cover "
            f"{100 * min(coverage):.1f}% (min) / "
            f"{100 * statistics.median(coverage):.1f}% (median) "
            f"of {len(coverage)} traced enrich calls"
        )


def print_overhead(args, result: dict) -> None:
    """Traced minus untraced timings, against the untraced result file."""
    path = result_path(args, args.workload, 0)
    if not path.is_file():
        print("  tracing overhead: no untraced run with these settings yet")
        return
    untraced = json.loads(path.read_text()).get("named", {})
    units = {name: unit for name, _, unit, _ in NAMED_METRICS}
    for name, traced in result["named"].items():
        if units[name] in ("s", "ms") and name != "setup_s" and name in untraced:
            delta = traced - untraced[name]
            print(
                f"  tracing overhead {name:<18} {delta:+.4f} {units[name]} "
                f"({100 * delta / untraced[name]:+.1f}%: {traced:.4f} traced, "
                f"{untraced[name]:.4f} untraced)"
            )


# -- all workloads -----------------------------------------------------------


def run_all(args) -> int:
    """Each workload untraced then traced, then a summary by name."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                *("--workload", workload, "--seed", str(args.seed)),
                *("--seconds", str(args.seconds), "--trace", str(trace)),
            ]
            if args.rung:
                command += ["--rung", args.rung]
            status |= subprocess.run(command, check=False).returncode
    print("summary (untraced runs):")
    print(f"  {'metric':<20} {'workload':<8} {'value':>12}  {'unit':<6} better")
    for name, workloads_, unit, better in NAMED_METRICS:
        for workload in workloads_:
            path = result_path(args, workload, 0)
            named = json.loads(path.read_text())["named"] if path.is_file() else {}
            value = named.get(name)
            shown = f"{value:>12.4f}" if value is not None else f"{'missing':>12}"
            status |= value is None
            print(f"  {name:<20} {workload:<8} {shown}  {unit:<6} {better}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, summarised")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rung", choices=("S", "M", "L"), help="cold/stream rung")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    # A terminated run still stops its server child (the finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
