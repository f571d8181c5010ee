#!/usr/bin/env python3
"""Self-test of tools/bench_diff.py on the fixtures in tools/testdata/.

    $ python3 tools/test_bench_diff.py

bench_diff_shift30.json is bench_diff_base.json with every row 30% slower:
a run-wide shift, which must flag nothing. bench_diff_count.json changes
one predicate_evals count and no timing, which must flag that row and only
that row. Exit 0 when both hold (ctest bench_diff_selftest).
"""
import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_diff  # noqa: E402


def rows(name):
    return bench_diff.load_rows(os.path.join(HERE, "testdata", name))[1]


def main():
    base = rows("bench_diff_base.json")
    failures = []

    shifted = rows("bench_diff_shift30.json")
    lines, flagged = bench_diff.compare(base, shifted, 0.10)
    if flagged:
        failures.append(f"run-wide +30% shift flagged {flagged}")
    # The fixture must be one the unscaled comparison would have flagged.
    raw = [n for n in shifted if "counts" not in shifted[n] and
           shifted[n]["ns"]["median"] > 1.1 * base[n]["ns"]["median"]]
    if len(raw) < bench_diff.MIN_NORMALISE:
        failures.append("shift fixture does not shift the timed rows")

    lines, flagged = bench_diff.compare(base, rows("bench_diff_count.json"),
                                        0.10)
    if flagged != ["fig1.A1.eg.events=96.n=6"]:
        failures.append(f"one changed count flagged {flagged}")
    if not any("COUNT CHANGE: predicate_evals 97 -> 98" in l for l in lines):
        failures.append("count change not printed as a COUNT CHANGE")

    # A single row slowing down against a steady run still flags.
    one = copy.deepcopy(base)
    one["linear.EG"]["ns"]["median"] *= 1.3
    _, flagged = bench_diff.compare(base, one, 0.10)
    if flagged != ["linear.EG"]:
        failures.append(f"one row +30% against the run flagged {flagged}")

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("bench_diff self-test: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
