#!/usr/bin/env python3
"""Report-only diff of two hbct.bench/1 JSON files.

Usage: bench_diff.py BASELINE.json CURRENT.json [--threshold 0.10]

Compares per-cell median wall-clock times and prints a table of deltas.
Cells whose median regressed by more than the threshold (default 10%) are
flagged with "WARN". The exit code is always 0: benchmark noise on shared
CI runners makes a hard gate flaky, so this is a visibility tool — the
committed baselines are refreshed deliberately, not by CI.
"""

import argparse
import json
import sys


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "hbct.bench/1":
        sys.exit(f"{path}: not an hbct.bench/1 file")
    return doc.get("bench", "?"), {r["name"]: r for r in doc.get("rows", [])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="warn when median regresses by more than this "
                         "fraction (default 0.10)")
    args = ap.parse_args()

    bench_a, base = load_rows(args.baseline)
    bench_b, cur = load_rows(args.current)
    if bench_a != bench_b:
        print(f"note: comparing different benches ({bench_a} vs {bench_b})")

    width = max([len(n) for n in set(base) | set(cur)] + [4])
    print(f"{'cell':<{width}}  {'base med ns':>12}  {'cur med ns':>12}  "
          f"{'delta':>8}")
    warnings = 0
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            print(f"{name:<{width}}  {'-':>12}  "
                  f"{cur[name]['ns']['median']:>12.0f}  {'new':>8}")
            continue
        if name not in cur:
            print(f"{name:<{width}}  {base[name]['ns']['median']:>12.0f}  "
                  f"{'-':>12}  {'gone':>8}")
            continue
        b = base[name]["ns"]["median"]
        c = cur[name]["ns"]["median"]
        delta = (c - b) / b if b else 0.0
        flag = "  WARN: regression" if delta > args.threshold else ""
        print(f"{name:<{width}}  {b:>12.0f}  {c:>12.0f}  {delta:>+7.1%}{flag}")
        if delta > args.threshold:
            warnings += 1
    if warnings:
        print(f"\n{warnings} cell(s) regressed beyond "
              f"{args.threshold:.0%} (report-only, not failing the build)")
    else:
        print("\nno cell regressed beyond the threshold")

    # Flight-recorder A/B pairs (rows differing only by a /norec suffix, or
    # a /norec sibling of a /gc row): print the gating overhead measured in
    # the current run — the telemetry layer's always-on claim is <= 2%.
    # An INVERTED flag means the off-side measured *slower* than the
    # on-side beyond the noise threshold, which can only be a measurement
    # problem (cold passes in the sample, uninterleaved A/B, histogram
    # quantization) — investigate the harness, not the feature.
    inversions = 0
    for name in sorted(cur):
        if not name.endswith("/norec"):
            continue
        base_name = name[: -len("/norec")]
        on_name = next((n for n in (base_name + "/rec", base_name)
                        if n in cur), None)
        if on_name is None:
            continue
        on = cur[on_name]["ns"]["median"]
        off = cur[name]["ns"]["median"]
        if off:
            overhead = (on - off) / off
            flag = ""
            if overhead < -args.threshold:
                flag = "  INVERTED: off-pass slower than on-pass"
                inversions += 1
            print(f"recorder overhead {on_name} vs {name}: "
                  f"{overhead:+.2%}{flag}")
        flag = inverted_latency(cur, on_name, name, args.threshold)
        if flag:
            inversions += 1
            print(flag)

    if inversions:
        print(f"\n{inversions} inverted A/B pair(s): the measurement is "
              f"suspect (report-only, not failing the build)")
    return 0


def inverted_latency(cur, on_name, off_name, threshold):
    """Fire-latency inversion check on an A/B pair's watch extensions: the
    off-side p99 sitting far above the on-side is a harness bug (this is
    how a 33.5 ms cold-pass p99 shipped in a /norec row)."""
    on = cur[on_name].get("watch")
    off = cur[off_name].get("watch")
    if not on or not off:
        return None
    on_p99 = on.get("fire_p99_ns", 0)
    off_p99 = off.get("fire_p99_ns", 0)
    if on_p99 and off_p99 > on_p99 * (1 + max(threshold, 0.5)):
        return (f"  INVERTED: {off_name} fire p99 {off_p99} ns vs "
                f"{on_name} {on_p99} ns")
    return None


if __name__ == "__main__":
    sys.exit(main())
