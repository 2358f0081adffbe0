"""Planted-alignment benchmark of netalign: end-to-end and per-layer numbers.

    python3 benchmarks/run.py --workload sweep-small --seed 1 --seconds 40 --trace 0
    python3 -m pytest -q benchmarks        # seconds-long smoke test of all of it

Runs one workload (see `workloads.py`) in this process, pinned to one CPU,
with one BLAS thread and no worker processes, against the `netalign` sources
in `src/` next to this directory. It sets up several times (import in a
fresh interpreter, then input generation plus warm-up here) and reports the
import time plus the set-up time as `setup_s`. It then repeats units of measured work for
`--seconds` seconds and checks every result independently (`oracle.py`).
Every time is scaled to a reference CPU speed by a probe loop timed between
ops (`speed.py`), since the host's CPU speed moves by up to 1.7x on its own.
It prints a report, then, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`; details go to `.bench_out/`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. Every workload
reports the same four, each over its own op:

    setup_s        import + input generation + warm-up
    op_ms_p50      median over a unit's ops of each op's time: a run_trial
                   (sweep-small), eigen_align plus projected_power_align on
                   one pair (pair-dense), or two parse_edge_list plus
                   eigen_align (match-sparse)
    eigenalign_ms  the same over the EigenAlign part: EigenAlign trials,
                   eigen_align on the pair, eigen_align after parsing
    peak_rss_mb    peak resident set size of the process

An op's time is the lower quartile of its repeats in the run, each scaled
to the reference CPU speed (`speed.py`).

The report lines above the JSON add each workload's own figures: sweep
throughput, trial p50 and p95 with the sample count, ppa_s, match_s,
recovery and matched-edge ratios (failed trials excluded), PPA cap counts,
`failure_rate`, the unscaled median op time and the CPU speed seen.

`--trace 1` spends half the time untraced and half with spans installed
around the library's public functions (`tracing.py`). It reports the
per-layer metrics from the traced half and the tracing overhead (traced
minus untraced scaled median op time). Per-call layer times are unscaled
span durations; the self-time shares do not depend on the CPU speed.
`--smoke` shrinks every workload to seconds.

Exit status: 0 when every check passed, 1 when a check failed (the JSON line
is still printed), 2 when the library sources are missing or arguments are
invalid (nothing is printed to stdout).
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402  (BLAS threads must be fixed before numpy loads)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
WORKLOAD_NAMES = ("sweep-small", "pair-dense", "match-sparse")

# Per-call medians of layer functions every workload calls.
PER_CALL = {
    "graphs.make_instance_ms": "graphs.make_instance",
    "graphs.matched_edges_ms": "graphs.matched_edges",
    "operator.build_ms": "operator.build",
    "operator.apply_ms": "operator.apply",
    "spectral.top_eigenvector_ms": "spectral.top_eigenvector",
    "rounding.max_weight_matching_ms": "rounding.max_weight_matching",
}
# Self time of each layer function as a share of the traced ops' wall time.
SHARES = ("graphs.make_instance", "graphs.matched_edges", "graphs.parse_edge_list",
          "operator.build", "operator.apply", "operator.quadratic_form",
          "spectral.top_eigenvector", "rounding.max_weight_matching",
          "rounding.greedy_round", "align.eigen_align", "align.ppa",
          "harness.run_trial", "harness.serialize")
# Calls per op.
CALLS = {
    "operator.build_calls": "operator.build",
    "operator.apply_calls": "operator.apply",
    "operator.quadratic_form_calls": "operator.quadratic_form",
    "rounding.greedy_round_calls": "rounding.greedy_round",
}


def parse_args(argv):
    def seed(text):
        value = int(text)
        if not 0 <= value < 2 ** 64:
            raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
        return value

    def seconds(text):
        value = float(text)
        if not 0 < value <= 120:
            raise argparse.ArgumentTypeError("seconds must lie in (0, 120]")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=seed, required=True)
    parser.add_argument("--seconds", type=seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    return parser.parse_args(argv)


def import_library() -> None:
    """Import netalign from this checkout's src/, and from nowhere else."""
    if not (SRC / "netalign" / "__init__.py").is_file():
        print(f"error: netalign sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import netalign
    if Path(netalign.__file__).resolve().parent != (SRC / "netalign").resolve():
        print(f"error: imported netalign from {netalign.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def time_imports(clock) -> None:
    """Time importing netalign in fresh interpreters, as "import" on `clock`."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import netalign; print(time.perf_counter() - t)")
    for _ in range(IMPORT_REPEATS):
        clock.close()
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=120, check=True)
        clock.add("import", float(proc.stdout))
    clock.close()


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts(args) -> dict:
    import numpy as np
    import scipy

    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def pin_to_fastest_cpu() -> int:
    """Pin this process (and the interpreters it starts) to the CPU that now
    runs the speed probe fastest, so that each probe reading describes the
    CPU the ops around it ran on."""
    from speed import probe_seconds

    speeds = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = probe_seconds()
    cpu = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure(workload, seconds: float, tracer):
    """Repeat units for `seconds`; return them with the clock that timed them."""
    from speed import SpeedClock

    units, clock = [], SpeedClock()
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(workload.run_unit(clock, tracer))
    return units, clock


def median_ms(clock, kind: str) -> float:
    return 1000.0 * statistics.median(clock.typical(kind))


def end_to_end(clock, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (median_ms(clock, "op"), "ms"),
        "eigenalign_ms": (median_ms(clock, "eigen"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(spans, traced_units, traced_clock, untraced_clock) -> dict:
    from tracing import self_times

    own = self_times(spans)
    in_ops = [(s, t) for s, t in zip(spans, own) if s.op != "setup"]
    wall = sum(s.duration for s in spans if s.parent is None and s.op != "setup")
    n_ops = len({s.op for s, _ in in_ops if isinstance(s.op, int)})

    def named(name, ops_only=True):
        return [(s, t) for s, t in (in_ops if ops_only else zip(spans, own)) if s.name == name]

    def p50_ms(values):
        return 1000.0 * statistics.median(values) if values else 0.0

    out = {}
    for metric, name in PER_CALL.items():
        out[metric] = (p50_ms([s.duration for s, _ in named(name, ops_only=False)]), "ms")
    out["align.eigen_align_self_ms"] = (p50_ms([t for _, t in named("align.eigen_align")]), "ms")
    for name in SHARES:
        out[f"{name}_self_pct"] = (100.0 * sum(t for _, t in named(name)) / wall, "%")
    for metric, name in CALLS.items():
        out[metric] = (len(named(name)) / n_ops, "calls/op")
    eig = [s.info for s, _ in named("spectral.top_eigenvector")]
    out["spectral.iterations"] = (statistics.mean(i["iterations"] for i in eig), "count")
    out["spectral.residual"] = (max(i["residual"] for i in eig), "norm")
    ppa = [s.info for s, _ in named("align.ppa")]
    out["align.ppa_steps"] = (statistics.mean(i["steps"] for i in ppa) if ppa else 0.0, "count")
    out["align.ppa_cap_rate"] = (sum(not i["converged"] for i in ppa) / len(ppa) if ppa else 0.0,
                                 "capped/call")
    out["harness.failed_trials"] = (sum(
        1 for u in traced_units for r in u.samples.get("records", ()) if r.failure), "count")
    accounted = sum(t for s, t in in_ops if not s.name.startswith("bench."))
    out["trace.accounted_pct"] = (100.0 * accounted / wall, "%")
    traced, untraced = median_ms(traced_clock, "op"), median_ms(untraced_clock, "op")
    out["trace.op_ms_p50"] = (traced, "ms")
    out["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    return out


def write_outputs(stem: str, payload: dict, spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
    if spans:
        with (OUT_DIR / f"{stem}.spans.jsonl").open("w") as sink:
            for idx, s in enumerate(spans):
                sink.write(json.dumps({"id": idx, "name": s.name, "start": s.start,
                                       "end": s.end, "parent": s.parent, "op": s.op,
                                       "info": s.info}) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import netalign.align
    import netalign.graphs
    import netalign.harness
    import netalign.operator
    from speed import REF_PROBE_S, SpeedClock
    from tracing import Tracer, span_targets
    from workloads import WORKLOADS

    cpu = pin_to_fastest_cpu()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    setup_clock = SpeedClock()
    for _ in range(SETUP_REPEATS):
        setup_clock.measure("setup", workload.setup)
    time_imports(setup_clock)
    import_s = setup_clock.typical("import")[0]
    setup_s = import_s + setup_clock.typical("setup")[0]

    spans = []
    if args.trace:
        untraced, clock = measure(workload, args.seconds / 2, None)
        tracer = Tracer()
        tracer.install(span_targets(netalign.graphs, netalign.operator,
                                    netalign.align, netalign.harness))
        try:
            with tracer.root("bench.setup", "setup"):
                workload.generate()
            traced, traced_clock = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        units = untraced + traced
        metrics = per_layer(spans, traced, traced_clock, clock)
    else:
        units, clock = measure(workload, args.seconds, None)
        metrics = end_to_end(clock, setup_s)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.problems]
    prints = sorted({u.fingerprint for u in units})
    if len(prints) != 1:
        problems.append(f"repeated units returned different results: {prints}")
        failed = max(failed, 1)
    correct = not problems and failed == 0

    facts = machine_facts(args)
    facts["pinned_cpu"] = cpu
    report = workload.report(clock, units if not args.trace else untraced)
    report += [("setup_s", setup_s, "s"), ("import_s", import_s, "s"),
               ("failure_rate", failed / attempted, f"failed/{attempted}"),
               ("op_ms_p50_unscaled", 1000.0 * statistics.median(clock.raw("op")), "ms"),
               ("cpu_speed", REF_PROBE_S / statistics.median(clock.readings), "x reference")]
    print(f"netalign benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, {len(units)} units")
    print("machine: " + json.dumps(facts))
    for name, value, unit in report:
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  [{'per-layer' if args.trace else 'end-to-end'}] {name} = {value:.6g} {unit}")
    print(f"fingerprint: {prints[0]} (permutations + matched_edges of one {workload.op_label} unit)")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = write_outputs(stem, {
        "machine": facts, "fingerprint": prints, "problems": problems,
        "report": report, "metrics": metrics, "setup_times": setup_clock.times,
        "times": clock.times, "probe_readings_s": clock.readings}, spans)
    print(f"details: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
