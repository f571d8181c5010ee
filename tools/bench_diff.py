#!/usr/bin/env python3
"""Report-only diff of two hbct.bench/1 JSON files.

Usage: bench_diff.py BASELINE.json CURRENT.json [--threshold 0.10]

Rows that carry exact "counts" (bench_paper) are compared count for count:
any change is printed as a COUNT CHANGE. Timed rows are compared by median
wall time, after dividing out the run-wide shift: the median of the
current/baseline ratios over all timed rows (when there are at least
MIN_NORMALISE of them). A whole run that is slower or faster on a shared
machine therefore flags nothing; a row that moved against the rest of its
run flags "WARN" when it regressed by more than the threshold (default
10%). The exit code is always 0: timing noise on shared CI runners makes a
hard gate flaky, and the counts are gated by tools/check_report.py
--reference instead. The committed baselines are refreshed deliberately,
not by CI.
"""

import argparse
import json
import statistics
import sys

# Fewer timed rows than this leave the run-wide shift indistinguishable
# from a change to those rows, so their deltas are compared unscaled.
MIN_NORMALISE = 3


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "hbct.bench/1":
        sys.exit(f"{path}: not an hbct.bench/1 file")
    return doc.get("bench", "?"), {r["name"]: r for r in doc.get("rows", [])}


def run_shift(base, cur):
    """The median current/baseline ratio of the timed rows both runs share,
    and how many rows it was taken over (1.0 when too few to normalise)."""
    ratios = [cur[n]["ns"]["median"] / base[n]["ns"]["median"]
              for n in set(base) & set(cur)
              if "counts" not in base[n] and "counts" not in cur[n]
              and base[n]["ns"]["median"] > 0]
    if len(ratios) < MIN_NORMALISE:
        return 1.0, len(ratios)
    return statistics.median(ratios), len(ratios)


def count_changes(b, c):
    """The counts that differ between two rows, as "key old -> new"."""
    bc, cc = b.get("counts") or {}, c.get("counts") or {}
    return [f"{k} {bc.get(k, '-')} -> {cc.get(k, '-')}"
            for k in sorted(set(bc) | set(cc)) if bc.get(k) != cc.get(k)]


def compare(base, cur, threshold):
    """Returns (lines, flagged): the report lines and the names of the rows
    flagged for a count change or a timing regression beyond `threshold`
    relative to the run-wide shift."""
    shift, timed = run_shift(base, cur)
    names = sorted(set(base) | set(cur))
    width = max([len(n) for n in names] + [4])
    lines = [f"run-wide shift (median current/baseline over {timed} timed "
             f"rows): {shift:.3f}" +
             ("" if timed >= MIN_NORMALISE else " (too few rows; unscaled)"),
             f"{'cell':<{width}}  {'base med ns':>12}  {'cur med ns':>12}  "
             f"{'delta':>8}  {'vs run':>8}"]
    flagged = []
    same_counts = 0
    for name in names:
        if name not in base:
            lines.append(f"{name:<{width}}  {'-':>12}  "
                         f"{cur[name]['ns']['median']:>12.0f}  {'new':>8}")
            continue
        if name not in cur:
            lines.append(f"{name:<{width}}  "
                         f"{base[name]['ns']['median']:>12.0f}  "
                         f"{'-':>12}  {'gone':>8}")
            continue
        b, c = base[name], cur[name]
        if "counts" in b or "counts" in c:
            changes = count_changes(b, c)
            if changes:
                lines.append(f"{name:<{width}}  COUNT CHANGE: " +
                             ", ".join(changes))
                flagged.append(name)
            else:
                same_counts += 1
            continue
        bm, cm = b["ns"]["median"], c["ns"]["median"]
        delta = (cm - bm) / bm if bm else 0.0
        rel = (cm / bm) / shift - 1 if bm else 0.0
        flag = "  WARN: regression" if rel > threshold else ""
        lines.append(f"{name:<{width}}  {bm:>12.0f}  {cm:>12.0f}  "
                     f"{delta:>+7.1%}  {rel:>+7.1%}{flag}")
        if flag:
            flagged.append(name)
    if same_counts:
        lines.append(f"{same_counts} row(s) with counts: all equal")
    return lines, flagged


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="warn when a median regresses by more than this "
                         "fraction relative to the run-wide shift "
                         "(default 0.10)")
    args = ap.parse_args()

    bench_a, base = load_rows(args.baseline)
    bench_b, cur = load_rows(args.current)
    if bench_a != bench_b:
        print(f"note: comparing different benches ({bench_a} vs {bench_b})")

    lines, flagged = compare(base, cur, args.threshold)
    print("\n".join(lines))
    if flagged:
        print(f"\n{len(flagged)} cell(s) changed a count or regressed beyond "
              f"{args.threshold:.0%} against the run (report-only, not "
              f"failing the build)")
    else:
        print("\nno count changed and no cell regressed beyond the threshold")

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
