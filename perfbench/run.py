"""freelip benchmark: one workload (or all four) as a closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload norm-dense --seed 1 --seconds 10 --trace 0

``--workload all`` runs the four workloads one after another, each in its own
process.  With ``--trace 0`` the end-to-end metrics are measured untraced;
with ``--trace 1`` a separate traced run reports the per-layer metrics named
in ``BENCHMARK.json``.  Outputs are checked after the timed loop; the last
line of standard output is one JSON object, and the exit status is 0 only if
every output check passed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "freelip", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(wl, seed: int, seconds: float):
    from measure import SpeedClock, latency_stats, median_setup, pass_seconds, run_ops

    inputs, setup_s, setup_runs = median_setup(lambda: wl.setup(seed), SpeedClock())
    speed = SpeedClock(wl.in_process)
    try:
        timing = run_ops(wl.ops(inputs, None), seconds, speed)
        report = output_report(wl, inputs, timing)
    finally:
        wl.cleanup(inputs)
    lat = latency_stats(timing)
    wall = pass_seconds(timing)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": report["cases"] / wall,
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "ok_ratio": 1 - report["failed"] / report["attempted"],
        "peak_rss_mb": peak_rss_mb(),
    }
    lines = [
        f"kind {kind}: {k['count']} ops, p50 {k['p50_ms']:.3f} ms, "
        f"tail p{k['tail_pct']:.1f} {k['tail_ms']:.3f} ms"
        for kind, k in lat["kinds"].items()
    ]
    lines.append(f"setup: median of {setup_runs} runs")
    lines.append(f"yardstick: median {1000 * speed.yardstick_s():.4f} ms over {len(speed.starts)} runs")
    return metrics, report, timing, lines


def traced(wl, seed: int, seconds: float):
    from measure import SpeedClock, pass_seconds, run_ops
    from spans import Tracer

    setup_speed = SpeedClock()
    setup_tracer = Tracer()
    with setup_speed.ticking(), setup_tracer.patched():
        inputs = wl.setup(seed)
    speed = SpeedClock(wl.in_process)
    tracer = Tracer()
    try:
        baseline = run_ops(wl.ops(inputs, None), 0, speed)
        with tracer.patched():
            timing = run_ops(wl.ops(inputs, tracer), seconds, speed, tracer)
        report = output_report(wl, inputs, timing)
    finally:
        wl.cleanup(inputs)
    wall = pass_seconds(timing)
    metrics = layer_metrics(setup_tracer, setup_speed.scaled, tracer, speed.scaled, timing.passes)
    metrics["trace.overhead_ratio"] = wall / pass_seconds(baseline)
    path = os.path.join(ROOT, ".perfbench", f"spans-{wl.name}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"passes": timing.passes, "setup": setup_tracer.dump(), "loop": tracer.dump()}, fh)
    share = metrics["norms.free_norm_dual.s"] / wall
    lines = [
        f"spans: {len(setup_tracer.start)} in setup, {len(tracer.start)} in the loop, written to {os.path.relpath(path, ROOT)}",
        f"traced pass {wall:.3f} s; free_norm_dual share of it {share:.1%}",
    ]
    return metrics, report, timing, lines


def layer_metrics(setup, setup_scaled, loop, loop_scaled, passes: float) -> dict[str, float]:
    """Per-layer figures for one setup plus one pass of the timed loop."""
    from spans import CHECKS, LAYERS, WRAPPED, summarize

    s_calls, s_incl, s_self = summarize(setup, setup_scaled)
    l_calls, l_incl, l_self = summarize(loop, loop_scaled)

    def combine(a, b):
        return lambda key: a.get(key, 0.0) + b.get(key, 0.0) / passes

    calls = combine(s_calls, l_calls)
    incl = combine(s_incl, l_incl)
    selfs = combine(s_self, l_self)
    count = combine(setup.counters, loop.counters)

    m = {f"{layer}.self_s": selfs(layer) for layer in LAYERS}
    for layer in ("metric", "elements", "functions", "norms", "extremal"):
        for func in WRAPPED[layer]:
            key = "metric.segment" if func == "PointedMetricSpace.segment" else f"{layer}.{func}"
            m[key + ".calls"] = calls(key)
            m[key + ".s"] = incl(key)
    m["lp.solves"] = calls("lp")
    m["lp.s"] = incl("lp")
    m["lp.non_optimal"] = count("lp.non_optimal")
    m["lp.cells"] = count("lp.cells")
    normers = calls("norms.normers_of")
    normers_lp = count("norms.normers_of.lp")
    probes = normers_lp - normers  # one solve per call finds the value itself
    m["norms.normers_of.lp_per_call"] = normers_lp / normers if normers else 0.0
    m["norms.normers_of.useful_probe_ratio"] = count("norms.normers_of.useful") / probes if probes else 0.0
    witness_calls = calls("extremal.almost_positive_witness")
    m["extremal.witness_found_ratio"] = count("extremal.witness_found") / witness_calls if witness_calls else 0.0
    for check in CHECKS:
        m[f"checks.{check}.s"] = incl(f"checks.{check}")
        m[f"checks.{check}.cases"] = count(f"checks.{check}.cases")
    m["checks.oracle.s"] = incl("checks.oracle")
    m["checks.oracle.lp_solves"] = count("checks.oracle.lp_solves")
    m["fileio.load.s"] = incl("fileio.load")
    m["fileio.dump.s"] = incl("fileio.dump")
    m["fileio.bytes_read"] = count("fileio.bytes_read")
    m["fileio.bytes_written"] = count("fileio.bytes_written")
    m["cli.import_s"] = incl("cli.import")
    m["cli.main.s"] = incl("cli.main")
    m["generators.s"] = incl("generators")
    return m


def output_report(wl, inputs, timing) -> dict:
    """Output checks and the digest, both outside the timed region."""
    units, failed_units, cases = wl.tally(timing.outputs)
    per_op = units / len(timing.outputs)
    errors = [e for e in timing.errors if e]
    problems = wl.problems(inputs, timing.outputs)
    material = wl.digest(inputs, timing.outputs)
    return {
        "attempted": round(timing.executions * per_op),
        "failed": round(timing.failures * per_op) + failed_units,
        "cases": cases,
        "errors": errors,
        "problems": problems,
        "digest": material,
    }


def run_one(args, declared: dict) -> int:
    nproc = len(os.sched_getaffinity(0))
    # one core for the loop, its child processes and the yardstick, so the
    # yardstick measures the core the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    metrics, report, timing, lines = measure(wl, args.seed, args.seconds)

    section = declared["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in section]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")

    digest_text = json.dumps(report["digest"], sort_keys=True, default=str)
    digest = hashlib.sha256(digest_text.encode()).hexdigest()
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"digest-{wl.name}-seed{args.seed}.json"), "w") as fh:
        fh.write(digest_text + "\n")

    correct = not report["problems"] and not report["errors"] and report["failed"] == 0
    latencies = [lat for lat in timing.op_latency() if lat is not None]
    print(
        f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(timing.outputs)} ops, "
        f"{timing.passes:.2f} passes in {timing.elapsed:.2f} s; "
        f"one pass at the measured op latencies {sum(latencies):.3f} s"
    )
    for line in lines:
        print(line)
    print(
        f"info src_lines={src_lines()} python={platform.python_version()} "
        f"nproc={nproc}"
    )
    print(f"digest sha256={digest}")
    for problem in report["problems"][:20]:
        print(f"CHECK FAILED {problem}")
    for error in report["errors"][:5]:
        print(f"OP FAILED {error}")
    units = {m["name"]: m["unit"] for m in section}
    for name in names:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, declared: dict) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in (w["name"] for w in declared["workloads"]):
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {workload} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    declared = load_declared()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in declared["workloads"]] + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "freelip", "__init__.py")):
        print("error: the freelip sources (src/freelip) are not in this checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, declared)
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
