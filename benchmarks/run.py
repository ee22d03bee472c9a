"""tritave benchmark: three seeded closed-loop workloads, one client each.

    python3 benchmarks/run.py --workload cli-mix|pitch-stream|harmony-tables \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Prints a report, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

#: Set-up processes measured per run (after one that warms the bytecode cache).
SETUP_REPEATS = 5
#: Share of --seconds the traced run spends untraced, for trace.overhead_ratio.
TRACE_BASE_SHARE = 0.3
#: `-X importtime` probes (and twice as many bare spawns) per traced in-process run.
PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "op_cpu_ms_p50": "ms",
                    "op_cpu_ms_tail": "ms", "work_per_cpu_s": "1/s"}

# Per-layer names the traced run reports, besides calls/self_ms/errors per layer.
PER_CALL = ("ratios.compare_calls", "ratios.compare_us_p50", "ratios.as_fraction_calls",
            "scales.period_reduce_us_p50", "scales.reduce_to_fundamental_us_p50",
            "scales.pyth2_pyth3_differences_ms_p50", "notation.name_of_us_p50",
            "notation.parse_note_us_p50", "notation.pyth2_name_of_us_p50",
            "harmony.reduce_chord_to_domain_us_p50", "harmony.purity_us_p50",
            "harmony.classify_us_p50", "tonnetz.apply_plr_us_p50",
            "tonnetz.reachable_note_classes_ms_p50", "exports.emit_table_us_p50",
            "exports.parse_progression_us_per_line",
            "exports.emit_tonnetz_path_us_per_chord", "cli.main_us_p50")


def layer_unit(name: str) -> str:
    if name.endswith(("calls", "errors")):
        return "count"
    if name == "trace.overhead_ratio":
        return "ratio"
    for suffix, unit in (("_us_per_line", "us/line"), ("_us_per_chord", "us/chord"),
                         ("_us", "us"), ("_us_p50", "us"), ("_ms", "ms"), ("_ms_p50", "ms")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def per_layer_names() -> list[str]:
    names = ["import.tritave_total_us"]
    names += [f"import.{layer}.self_us" for layer in spans.LAYERS]
    names += ["import.stdlib.self_us", "proc.bare_python_ms_p50"]
    for layer in spans.LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_ms", f"{layer}.errors"]
    return names + list(PER_CALL) + ["trace.overhead_ratio"]


def run_loop(workload, seconds: float, tally, limit=None, stop=lambda: False) -> list[int]:
    """Run operations in order until the time is up; their busy times in ns."""
    busy = []
    deadline = time.perf_counter() + seconds
    for op in workload.ops():
        if time.perf_counter() >= deadline or len(busy) == limit or stop():
            break
        busy.append(workload.run_op(op, tally))
    return busy


def measure_setup(name: str, seed: int, env) -> tuple[float, float, float]:
    """Set-up CPU seconds, scaled, and peak RSS in MiB; the bare start-up CPU ms.

    Each probe process does the workload's set-up and then its first few
    operations; the first one also warms the bytecode cache.  A bare
    `python -c pass` follows each probe, and the set-up time is scaled by
    `BARE_START_MS` over their p50, like the cli-mix times (NOTES.md).
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--probe"]
    probe(argv, env)
    children, bare = [], []
    for _ in range(SETUP_REPEATS):
        children.append(probe(argv, env))
        bare.append(probe([sys.executable, "-c", "pass"], env).cpu_ns / 1e6)
    bare_ms = statistics.median(bare)
    setup_s = statistics.median(float(c.out.split()[0]) for c in children)
    return (setup_s * workloads.BARE_START_MS / bare_ms,
            statistics.median(c.max_rss_kib for c in children) / 1024, bare_ms)


def probe(argv, env) -> workloads.Child:
    child = workloads.spawn(argv, env, ROOT)
    if child.code != 0:
        raise RuntimeError(f"{' '.join(argv)} failed: {child.err.strip()}")
    return child


def traced_run(workload, seconds: float, tally, env, trace_dir: Path) -> dict[str, float]:
    """Untraced, then the same operations traced; per-layer numbers."""
    base = run_loop(workload, seconds * TRACE_BASE_SHARE, tally)
    in_process = not isinstance(workload, workloads.CliMix)
    if in_process:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_loop(workload, seconds * 2, tally, limit=len(base),
                              stop=lambda: tracer.full)
        finally:
            tracer.uninstall()
        tracer.dump(trace_dir / "spans.json")
        workload_spans = spans.SpanSet()
        workload_spans.add(tracer.to_dict())
    else:
        workload.trace_dir = trace_dir
        traced = run_loop(workload, seconds * 2, tally, limit=len(base))
        workload_spans = workload.spans

    out = {}
    if in_process:
        bare = [probe([sys.executable, "-c", "pass"], env).wall_ns / 1e6
                for _ in range(2 * PROBES)]
        imports = [spans.import_metrics(spans.parse_importtime(
            probe([sys.executable, "-X", "importtime", "-c", "import tritave.cli"], env).err)[0])
            for _ in range(PROBES)]
    else:
        bare, imports = tally.samples["bare"], workload.imports
    out.update(spans.median_metrics(imports))
    out["proc.bare_python_ms_p50"] = statistics.median(bare)
    out.update(workload_spans.layer_metrics())
    out["trace.overhead_ratio"] = sum(traced) / sum(base[:len(traced)])
    out["trace.ops"] = len(traced)
    return out


def environment() -> dict[str, str]:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return {
        "python": platform.python_version(),
        "bytecode": "warm: children write and read .bench_build/pycache",
        "nproc": str(len(os.sched_getaffinity(0))),
        "loadavg_at_start": load,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tritave" / "__init__.py").is_file():
        print(f"error: no tritave sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Read tritave's bytecode where the children keep it warm.
    sys.pycache_prefix = str(BUILD / "pycache")
    cls = workloads.WORKLOADS[args.workload]
    if args.probe:
        workload = cls(ROOT, args.seed)
        print(time.process_time(), flush=True)   # the set-up, interpreter start included
        tally = workloads.Tally(cls.NOMINAL_MS)
        for op in itertools.islice(workload.ops(), workload.PROBE_OPS):
            workload.run_op(op, tally)
        return 0

    env_record = environment()
    env = workloads.child_env(ROOT)
    setup_s, probe_rss_mb, setup_bare_ms = measure_setup(args.workload, args.seed, env)
    workload = cls(ROOT, args.seed)
    # The known seed defects, on fixed inputs kept out of the timed operations.
    defect_probes = workload.defect_probes()
    tally = workloads.Tally(cls.NOMINAL_MS)
    if args.trace:
        trace_dir = BUILD / "trace" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        layer = traced_run(workload, args.seconds, tally, env, trace_dir)
        named = {}
    else:
        run_loop(workload, args.seconds, tally)
        named = workload.metrics(tally)
        if isinstance(workload, workloads.CliMix):
            named["peak_rss_mb"] = (tally.counts["peak_rss_kib"] / 1024, "MiB", tally.attempted)
        else:
            named["peak_rss_mb"] = (probe_rss_mb, "MiB", SETUP_REPEATS)
        p50, tail, per_s = workload.generic(named)
        generic = {"setup_s": setup_s, "peak_rss_mb": named["peak_rss_mb"][0],
                   "op_cpu_ms_p50": p50, "op_cpu_ms_tail": tail, "work_per_cpu_s": per_s}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env      " + "  ".join(f"{k} {v}" for k, v in env_record.items()))
    for prop, counter in sorted(tally.props.items()):
        print(f"inputs   {prop}: " + "  ".join(f"{k} {v:.2%}"
                                               for k, v in inputs.shares(counter).items()))
    print(f"metric   setup_s {setup_s:.4f} s  (scaled CPU time, median of {SETUP_REPEATS} "
          f"set-ups; bare start {setup_bare_ms:.2f} ms)")
    for name, (value, unit, n) in named.items():
        print(f"metric   {name} {value:.4f} {unit}  (n={n})")
    refs = tally.samples.get("reference_cpu", [])
    print(f"scale    reference CPU p50 {workloads.quantile(refs, 0.5):.4f} ms (n={len(refs)}), "
          f"nominal {cls.NOMINAL_MS:g} ms")
    ratio = tally.failed / tally.attempted
    print(f"metric   failed_ops_ratio {ratio:.4f} failed/attempted "
          f"({tally.failed}/{tally.attempted})")
    for defect in sorted({p.defect for p in defect_probes}):
        statuses = Counter(p.status for p in defect_probes if p.defect == defect)
        print(f"known    seed defect {defect} on its probe cases (not timed): "
              + "  ".join(f"{k} {v}" for k, v in sorted(statuses.items())))
    for p in defect_probes:
        if p.status == "unexpected":
            print(f"failure  defect probe {p.case}: " + "; ".join(p.problems)[:300])
    for message in tally.messages[:5]:
        print(f"failure  {message}")
    if args.trace:
        print(f"trace    spans under {trace_dir.relative_to(ROOT)}, "
              f"{layer.pop('trace.ops')} operations traced")
        metrics = {n: {"value": layer[n], "unit": layer_unit(n)} for n in per_layer_names()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in generic.items()}
    correct = tally.failed == 0 and all(p.status != "unexpected" for p in defect_probes)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
