#!/usr/bin/env python3
"""The repo benchmark's entry point.

One workload per run (the form BENCHMARK.json's "command" uses):

    python3 perfbench/run.py --workload serve-longrun --seed 1 --seconds 20 --trace 0

builds the hbct library and the perfbench driver from source (CMake, into
.bench_build/ or $CARGO_TARGET_DIR), runs the workload and passes its output
through; the last stdout line is the JSON result. Build output goes to
stderr. The result's metric names are checked against BENCHMARK.json.

Every workload, one after the other, with a summary table:

    python3 perfbench/run.py --summary [--seed N] [--seconds S]
                             [--write-benchmark-json]

prints every end-to-end metric per workload (value, unit, sample count),
the error ratio and the measured input properties, and with
--write-benchmark-json regenerates BENCHMARK.json from the metric tables the
driver binary reports plus the measured properties.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170

# Workloads the gated benchmark runs, in order: the reason each exists, and
# how its measured input properties (the driver's "input" lines) read in
# BENCHMARK.json.
EXHAUSTIVE = ("lattice-nested-ctl", "lattice-brute-force", "ef-dfs", "eg-dfs")


def _longrun_facts(p):
    return (f"undecided share {p['watch_undecided_share']}, until share "
            f"{p['watch_until_share']}; {p['executions']}; procs {p['procs']}")


def _corpus_facts(p):
    return p["audit"]


def _nested_facts(p):
    mix = dict(kv.split("=") for kv in p["route_mix"].split())
    total = sum(int(v) for v in mix.values())
    slow = sum(int(mix.get(r, 0)) for r in EXHAUSTIVE)
    return (f"mean lattice {p['lattice_cuts_mean']} cuts; {slow} of {total} "
            f"calls exhaustive")


GATED = [
    ("serve-longrun",
     "saturation drain with GC; watches stay undecided (the until cost)",
     _longrun_facts),
    ("offline-corpus",
     "post-mortem audit: mtrace load + polynomial detect routes",
     _corpus_facts),
    ("offline-nested",
     "CTL text: parse, optimizer, lattice, exhaustive fallbacks",
     _nested_facts),
]
# Run by --summary and by hand, but not gated (see perfbench/README.md).
UNGATED = ["serve-fleet"]

# (unit, better, bound). Timings are CPU time, which a shared host's vCPU
# steal does not inflate (see README.md). Every bound is the 0.25 maximum:
# ten-seed spreads reached 0.15 for the timings, and a small process's RSS
# (offline-nested, 16-20 MB) is bimodal across runs.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "events_per_s": ("1/cpu_s", "higher", 0.25),
    "fire_p50_us": ("cpu_us", "lower", 0.25),
    "fire_p99_us": ("cpu_us", "lower", 0.25),
    "verdict_s": ("cpu_s", "lower", 0.25),
    "rss_peak_mb": ("MB", "lower", 0.25),
}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O2 -DNDEBUG"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return None
        if r.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    work = os.path.join(os.path.dirname(build_dir()), "perfbench-work")
    traces = os.path.join(os.path.dirname(build_dir()), "perfbench-traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--trace-dir", traces,
           "--queries-dir", os.path.join(ROOT, "examples", "queries")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 124, ""
    return r.returncode, r.stdout


def metric_tables(binary):
    r = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE,
                       text=True, check=True)
    return json.loads(r.stdout)


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def expected_metrics(trace):
    """{name: unit} BENCHMARK.json expects for this mode, or None."""
    try:
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec.get(key, [])}


def single(args):
    binary = build()
    if binary is None:
        return 1
    code, out = run_workload(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        return code
    res = result_of(out)
    if res is None:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace)
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    if want is not None and args.workload not in UNGATED and got != want:
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(got.items()) ^ set(want.items()))}",
              file=sys.stderr)
        return 1
    return 0


def props_of(stdout):
    props = {}
    for line in stdout.splitlines():
        if line.startswith("  input "):
            key, _, value = line[len("  input "):].partition(" ")
            props[key] = value.strip()
    return props


def sample_counts(stdout):
    counts = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("(n="):
            counts[parts[0]] = parts[3][3:-1]
    return counts


def summary(args):
    binary = build()
    if binary is None:
        return 1
    measured = {}
    ok = True
    for name in [g[0] for g in GATED] + UNGATED:
        code, out = run_workload(binary, name, args.seed, args.seconds, 0)
        res = result_of(out) if code == 0 else None
        print(f"== {name}")
        if res is None:
            print(f"   no result (exit {code})")
            ok = False
            continue
        counts = sample_counts(out)
        err = res["failed"] / max(1, res["attempted"])
        print(f"   {'error_ratio':16s} {err:.4g} ratio "
              f"(n={res['attempted']})")
        for k, m in res["metrics"].items():
            print(f"   {k:16s} {m['value']:.6g} {m['unit']} "
                  f"(n={counts.get(k, '?')})")
        props = props_of(out)
        for k, v in props.items():
            print(f"   input {k}: {v}")
        measured[name] = props
        if name not in UNGATED:
            ok = ok and res["correct"]
    if args.write_benchmark_json:
        write_benchmark_json(binary, measured, args.seconds)
    return 0 if ok else 1


def write_benchmark_json(binary, measured, seconds):
    tables = metric_tables(binary)
    workloads = []
    for name, why, facts in GATED:
        try:
            text = f"{why}; {facts(measured[name])}"
        except (KeyError, ValueError):
            text = why
        if len(text) > 200:
            text = why
        workloads.append({"name": name, "why": text})
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": int(seconds),
        "workloads": workloads,
        "end_to_end": [
            {"name": n, "unit": END_TO_END[n][0], "better": END_TO_END[n][1],
             "bound": END_TO_END[n][2]}
            for n in tables["end_to_end"]],
        "per_layer": [
            {"name": n, "unit": u,
             "better": "higher" if n.endswith(("_per_s", "speedup",
                                               "reclaimed_per_round",
                                               "incremental_share"))
             else "lower"}
            for n, u in tables["per_layer"]],
    }
    with open(BENCHMARK_JSON, "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")
    print(f"wrote {BENCHMARK_JSON}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--summary", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args()
    if args.summary:
        return summary(args)
    if not args.workload:
        ap.error("--workload is required (or --summary)")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
