"""Benchmark entry point for slopewalk.

    python3 perfbench/run.py --workload oc-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it). Runs whole rounds of
the workload's operations until --seconds have passed and the tail
percentile has at least ten samples beyond it, checks every output, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics of BENCHMARK.json, measured with no
tracing. --trace 1 alternates untraced and traced rounds in this process
and gives the per-layer metrics. --workload all runs every workload in
turn, each in its own process. The metric names and units come from
BENCHMARK.json, so the file and the output cannot drift apart.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
TMP_DIR = ROOT / ".perfbench-tmp"
MIN_TRACED_ROUNDS = 3
MAX_LOOP_S = 120  # stop asking for more samples here, so a run always ends


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = q / 100 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def run_untraced(wl, seconds: float) -> tuple[dict, int, int]:
    setups = wl.setup_times()
    latencies: list[float] = []
    rounds: list[float] = []
    round_medians: list[float] = []
    round_tails: list[float] = []
    attempted = failed = 0
    start = perf_counter()
    while perf_counter() - start < seconds or (
            len(latencies) < wl.min_samples and perf_counter() - start < MAX_LOOP_S):
        gc.collect()
        total = 0.0
        done = len(latencies)
        for op in wl.ops:
            latency, op_failed = wl.execute(op)
            attempted += 1
            total += latency
            if op_failed:
                failed += 1
            else:
                latencies.append(latency)
        rounds.append(total)
        if len(latencies) > done:
            round_medians.append(median(latencies[done:]))
            round_tails.append(percentile(latencies[done:], wl.tail_percentile))
    if not latencies:
        raise SystemExit(f"{wl.name}: every operation failed")
    run_tail = percentile(latencies, wl.tail_percentile)
    tail = sum(round_tails) / len(round_tails) if wl.tail_per_round else run_tail
    print(f"{wl.name}: {len(rounds)} rounds of {len(wl.ops)} operations; latency_tail_ms is "
          + (f"the mean of each round's p{wl.tail_percentile:g}" if wl.tail_per_round else
             f"p{wl.tail_percentile:g}")
          + f" over {len(latencies)} samples (p{wl.tail_percentile:g} of the run {run_tail * 1e3:.1f} ms); "
          f"setup_s is the median of {len(setups)} set-ups")
    # Means over rounds: a shared host can alternate between two speeds for
    # seconds at a time, and a median taken across rounds jumps from one
    # speed to the other from run to run, where a mean moves smoothly.
    values = {
        "wall_s": sum(rounds) / len(rounds),
        "latency_p50_ms": sum(round_medians) / len(round_medians) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": wl.peak_rss_kb() / 1024,
    }
    return values, attempted, failed


def run_traced(wl, seconds: float, spans_path: Path) -> tuple[dict, int, int]:
    from tracing import SPAN_NAMES, Tracer

    tracer = Tracer()
    extras = wl.trace_extras()
    startup = sum(extras.values())  # per CLI process, which in-process rounds skip
    untraced: list[float] = []
    overheads: list[float] = []
    shares: list[float] = []
    layers: list[dict] = []
    attempted = failed = 0
    start = perf_counter()
    while perf_counter() - start < seconds or len(layers) < MIN_TRACED_ROUNDS:
        gc.collect()
        u_wall, n, f, _ = wl.round_inprocess()
        gc.collect()
        tracer.reset()
        tracer.install()
        try:
            t_wall, n2, f2, processes = wl.round_inprocess()
        finally:
            tracer.uninstall()
        summary = tracer.summarize()
        attempted += n + n2
        failed += f + f2
        untraced.append(u_wall)
        overheads.append(t_wall - u_wall)
        accounted = sum(s["self_s"] for s in summary.values()) + processes * startup
        shares.append(accounted / (t_wall + processes * startup))
        layers.append(summary)
    tracer.dump(spans_path)
    print(f"{wl.name}: {len(layers)} traced and {len(untraced)} untraced rounds in process; "
          f"spans of the last round in {spans_path.relative_to(ROOT)}")
    field = {"dim_max": "dim", "coeff_bits_max": "coeff_bits"}
    values = {"trace.overhead_s": median(overheads), "trace.accounted_share": median(shares), **extras}
    for name in SPAN_NAMES:
        for key in ("self_s", "calls", "raised", "dim_max", "coeff_bits_max", "bytes", "hits", "misses"):
            values[f"{name}.{key}"] = median([round_[name].get(field.get(key, key), 0) for round_ in layers])
    return values, attempted, failed


def run_one(args, spec: dict) -> int:
    import workloads

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = TMP_DIR / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        if args.trace:
            spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            OUT_DIR.mkdir(exist_ok=True)
            values, attempted, failed = run_traced(wl, args.seconds, spans_path)
        else:
            values, attempted, failed = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    for err in wl.errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"no measurement for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  attempted = {attempted}, failed = {failed}, "
          f"check failures = {len(wl.errors)}")
    result = {"correct": not wl.errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{w['name']} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w['name']}/{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="time imports plus input generation once, and print the seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slopewalk" / "__init__.py").is_file():
        print(f"error: no slopewalk sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    if args.probe_setup:
        import workloads

        t0 = perf_counter()
        workloads.load_slopewalk(ROOT)
        workloads.WORKLOADS[args.workload].generate(args.seed)
        print(perf_counter() - t0)
        return 0
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
