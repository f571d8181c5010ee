#!/usr/bin/env python3
"""Schema checker for the observability artifacts.

    $ python3 tools/check_report.py report.json trace.json BENCH_table1.json
    $ python3 tools/check_report.py --reference BENCH_paper.json new.json

Auto-detects each file's kind and validates it:

  hbct.report/1   run report (src/obs/report.h)
  hbct.bench/1    bench artifact (bench/bench_report.h); a "paper" bench
                  (bench/bench_paper.cpp) is also checked against the
                  paper's bounds and, with --reference, count for count
                  against a committed document
  Chrome trace    trace_event JSON (Tracer::chrome_trace_json and
                  FlightRecorder::dump_chrome)
  exposition      Prometheus text scrape (obs/expose.h render_prometheus)

Exit 0 when every file validates; the CI observability job runs this over
the artifacts produced by example_traced_detection and the bench binaries.
Stdlib only — mirrors, not replaces, the stricter in-process json_validate.
"""
import json
import math
import sys

VERDICTS = {"holds", "fails", "unknown"}
BOUNDS = {"none", "state-cap", "step-budget", "deadline", "cancelled",
          "audit-failed"}
SUMMARY_KEYS = {"min", "max", "mean", "median", "stddev", "p50", "p90", "p99"}


def fail(path, msg):
    raise SystemExit(f"{path}: {msg}")


def check_spans(path, spans):
    for i, s in enumerate(spans):
        for k in ("id", "name", "tid", "parent", "start_ns", "dur_ns"):
            if k not in s:
                fail(path, f"span {i} missing {k!r}")
        if s["id"] != i:
            fail(path, f"span {i} has id {s['id']}")
        # Spans are appended at begin(): a parent always precedes its child.
        if not (s["parent"] == -1 or 0 <= s["parent"] < i):
            fail(path, f"span {i} has dangling parent {s['parent']}")
        if s.get("open"):
            fail(path, f"span {i} ({s['name']}) never closed")


def check_rewrites(path, rewrites):
    """The optimizer's rewrite chain: every step names a catalog rule and
    renders the before/after forms (src/analysis/rules.h)."""
    if not isinstance(rewrites, list):
        fail(path, "rewrites is not an array")
    for i, s in enumerate(rewrites):
        for k in ("rule", "note", "before", "after"):
            if k not in s:
                fail(path, f"rewrite {i} missing {k!r}")
            if not isinstance(s[k], str):
                fail(path, f"rewrite {i} field {k!r} is not a string")
        if not s["rule"]:
            fail(path, f"rewrite {i} has an empty rule name")
        if not s["before"] or not s["after"]:
            fail(path, f"rewrite {i} ({s['rule']!r}) missing before/after")


def check_report(path, doc):
    for k in ("schema", "verdict", "bound", "algorithm", "plan", "stats",
              "witness_cut", "witness_path_len", "rewrites", "diagnostics",
              "metrics", "spans"):
        if k not in doc:
            fail(path, f"missing key {k!r}")
    if doc["verdict"] not in VERDICTS:
        fail(path, f"bad verdict {doc['verdict']!r}")
    if doc["bound"] not in BOUNDS:
        fail(path, f"bad bound {doc['bound']!r}")
    check_rewrites(path, doc["rewrites"])
    if not all(isinstance(v, int) for v in doc["stats"].values()):
        fail(path, "non-integer stats counter")
    if doc["spans"] is not None:
        check_spans(path, doc["spans"])
    m = doc["metrics"]
    if m is not None:
        for h, snap in m.get("histograms", {}).items():
            if not snap["p50"] <= snap["p90"] <= snap["p99"]:
                fail(path, f"histogram {h!r} percentiles not monotone")
    return "report"


STREAMING_KEYS = {"sessions", "gc_interval_events", "events",
                  "events_per_sec", "resident_peak", "gc_reclaimed_events",
                  "gc_rounds", "fire_p50_ns", "fire_p99_ns", "recorder",
                  "until_watch", "until_inc_evals", "until_dec_evals"}
STREAMING_BOOLS = {"recorder", "until_watch"}


def check_streaming(path, name, s):
    """The optional per-row extension emitted by bench_streaming."""
    if s.keys() != STREAMING_KEYS:
        fail(path, f"row {name!r} streaming keys {sorted(s.keys())} != "
                   f"{sorted(STREAMING_KEYS)}")
    for k in STREAMING_BOOLS:
        if not isinstance(s[k], bool):
            fail(path, f"row {name!r} streaming.{k} is not a bool")
    for k, v in s.items():
        if k in STREAMING_BOOLS:
            continue
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail(path, f"row {name!r} streaming.{k} is not a number")
    if s["sessions"] <= 0 or s["events"] <= 0:
        fail(path, f"row {name!r} streaming has no sessions/events")
    if not s["fire_p50_ns"] <= s["fire_p99_ns"]:
        fail(path, f"row {name!r} fire-latency percentiles not monotone")
    if not s["until_watch"] and (s["until_inc_evals"] or s["until_dec_evals"]):
        fail(path, f"row {name!r} counts until work without until watches")
    if s["gc_interval_events"] <= 0 and s["gc_rounds"] != 0:
        fail(path, f"row {name!r} reports GC rounds with GC disabled")
    if s["gc_interval_events"] > 0:
        # Bounded residency is the artifact's headline claim: with GC on the
        # peak must not be the whole stream (a small multiple of
        # sessions * interval; 8x absorbs inbox lag between pump runs).
        bound = 8 * s["sessions"] * s["gc_interval_events"]
        if s["resident_peak"] >= min(s["events"], bound):
            fail(path, f"row {name!r} resident_peak {s['resident_peak']} "
                       f"not bounded (events={s['events']}, bound={bound})")


WATCH_KEYS = {"class", "sessions", "watches", "events",
              "watch_evals_per_sec", "fires", "fire_p50_ns", "fire_p99_ns",
              "fire_samples", "p99_target_ns", "met_p99", "recorder"}
WATCH_CLASSES = {"conjunctive", "disjunctive", "invariant", "stable",
                 "channel", "relational", "until", "mixed"}


def check_watch(path, name, s, require_met=frozenset()):
    """The optional per-row extension emitted by bench_watch. Percentiles
    are exact (raw nanosecond samples accumulated across the row's measured
    passes), not the serve histogram's log2 buckets. `require_met` turns
    met_p99 into a hard gate for every row of those classes
    (--require-met-p99)."""
    if s.keys() != WATCH_KEYS:
        fail(path, f"row {name!r} watch keys {sorted(s.keys())} != "
                   f"{sorted(WATCH_KEYS)}")
    if s["class"] not in WATCH_CLASSES:
        fail(path, f"row {name!r} unknown watch class {s['class']!r}")
    for k in ("met_p99", "recorder"):
        if not isinstance(s[k], bool):
            fail(path, f"row {name!r} watch.{k} is not a bool")
    for k in WATCH_KEYS - {"class", "met_p99", "recorder"}:
        if not isinstance(s[k], (int, float)) or isinstance(s[k], bool):
            fail(path, f"row {name!r} watch.{k} is not a number")
    if s["sessions"] <= 0 or s["watches"] <= 0 or s["events"] <= 0:
        fail(path, f"row {name!r} watch has no sessions/watches/events")
    if s["watch_evals_per_sec"] <= 0:
        fail(path, f"row {name!r} watch throughput not positive")
    if s["fires"] <= 0:
        fail(path, f"row {name!r} armed watches never fired")
    if s["fire_samples"] <= 0:
        fail(path, f"row {name!r} has no raw fire-latency samples")
    if not s["fire_p50_ns"] <= s["fire_p99_ns"]:
        fail(path, f"row {name!r} fire-latency percentiles not monotone")
    if s["met_p99"] != (s["fire_p99_ns"] <= s["p99_target_ns"]):
        fail(path, f"row {name!r} met_p99 inconsistent with percentiles")
    if s["class"] in require_met and not s["met_p99"]:
        fail(path, f"row {name!r} class {s['class']!r} missed the p99 "
                   f"objective ({s['fire_p99_ns']} > {s['p99_target_ns']} ns)"
                   f" [--require-met-p99]")


INGEST_KEYS = {"format", "events", "input_bytes", "rss_delta_kb",
               "events_per_sec", "speedup_vs_text"}
INGEST_FORMATS = {"text", "btrace", "mtrace-copy", "mtrace-map"}


def check_ingest(path, name, s):
    """The optional per-row extension emitted by bench_ingest."""
    if s.keys() != INGEST_KEYS:
        fail(path, f"row {name!r} ingest keys {sorted(s.keys())} != "
                   f"{sorted(INGEST_KEYS)}")
    if s["format"] not in INGEST_FORMATS:
        fail(path, f"row {name!r} unknown ingest format {s['format']!r}")
    for k in INGEST_KEYS - {"format"}:
        if not isinstance(s[k], (int, float)) or isinstance(s[k], bool):
            fail(path, f"row {name!r} ingest.{k} is not a number")
    if s["events"] <= 0 or s["input_bytes"] <= 0:
        fail(path, f"row {name!r} ingest has no events/bytes")
    if s["rss_delta_kb"] < 0:
        fail(path, f"row {name!r} ingest.rss_delta_kb is negative")
    if s["events_per_sec"] <= 0:
        fail(path, f"row {name!r} ingest throughput not positive")
    # The artifact's headline claim: the text parse is the 1.0x reference
    # and the zero-copy mmap view beats it by an order of magnitude.
    if s["format"] == "text" and s["speedup_vs_text"] != 1:
        fail(path, f"row {name!r} text reference speedup is "
                   f"{s['speedup_vs_text']}, expected 1")
    if s["format"] == "mtrace-map" and s["speedup_vs_text"] < 1:
        fail(path, f"row {name!r} zero-copy load slower than the text parse")


PAPER_COUNTS = {"predicate_evals", "cut_steps", "lattice_nodes", "events",
                "procs"}

# The paper's bounds on one call's work W = predicate_evals + cut_steps,
# keyed by the algorithm name a row's label starts with:
#
#     W <= c * n * |E| + k        for |E| >= n >= 2
#
# with (c, k) taken from each algorithm's proof, as follows.
WORK_BOUNDS = {
    # A1 (Fig. 1): each step of the walk removes one event, so the path has
    # at most |E| steps; a step probes at most n predecessors at one retreat
    # (cut step) and one evaluation each, and the final cut costs one
    # evaluation: W <= 2n|E| + 1. Theorem 2's random choice probes every
    # predecessor, which the same count covers.
    "A1-eg-linear": (2, 1),
    "A1-eg-linear (randomized choice)": (2, 1),
    # Chase-Garg: every evaluation but the last is followed by adding at
    # least one event, so evals <= |E| + 1 and cut steps <= |E|:
    # W <= 2|E| + 1 <= 2n|E| + 1.
    "chase-garg-ef": (2, 1),
    # A3 (Fig. 5): one evaluation of q at the initial cut, Chase-Garg for
    # I_q (W <= 2|E| + 1), then at most n branches, each one retreat and a
    # scan of at most N_i + 1 positions per conjunct of p (one conjunct per
    # process in every row): W <= 2|E| + 2 + n(|E| + n + 1), which is at
    # most 4n|E| + 2 once |E| >= n >= 2.
    "A3-eu": (4, 2),
    # The AU identity (Section 7): EG(!q) scans at most |E| + n positions
    # and E[!q U (!p & !q)] is one A3 call: W <= |E| + n + 4n|E| + 2, at
    # most 5n|E| + 2.
    "au-disjunctive = !(eg(!q) | eu(!q, !p & !q))": (5, 2),
}


def row_algorithm(row):
    return row["label"].rsplit(" -> ", 1)[0]


def row_verdict(row):
    parts = row["label"].rsplit(" -> ", 1)
    return parts[1] if len(parts) == 2 else None


def loglog_slope(xs, ys):
    """util/stats.cpp's least-squares slope of log y over log x, skipping
    points with a non-positive coordinate."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)
           if x > 0 and y > 0]
    m = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    return (m * sxy - sx * sy) / (m * sxx - sx * sx)


def close(a, b):
    # Slopes are written with 6 significant digits.
    return abs(a - b) <= 1e-5 * max(1.0, abs(b))


def check_paper_row(path, row):
    name = row["name"]
    counts = row.get("counts")
    if not isinstance(counts, dict) or counts.keys() != PAPER_COUNTS:
        fail(path, f"row {name!r} counts keys "
                   f"{sorted(counts) if isinstance(counts, dict) else counts}"
                   f" != {sorted(PAPER_COUNTS)}")
    for k, v in counts.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail(path, f"row {name!r} counts.{k} is not a count: {v!r}")
    if counts["events"] <= 0 or counts["procs"] <= 0:
        fail(path, f"row {name!r} has no events or processes")


def check_paper_sweeps(path, rows):
    """Every row of a sweep names the same x and slope, and the slope is the
    log-log slope of predicate_evals + cut_steps over the rows' x."""
    sweeps = {}
    for row in rows:
        if "sweep" in row:
            sweeps.setdefault(row["sweep"]["name"], []).append(row)
    for sname, members in sweeps.items():
        first = members[0]["sweep"]
        if first["x"] not in ("events", "procs"):
            fail(path, f"sweep {sname!r} has unknown x {first['x']!r}")
        for row in members:
            if row["sweep"] != first:
                fail(path, f"sweep {sname!r}: row {row['name']!r} disagrees "
                           f"on x or slope")
        if len(members) < 2:
            fail(path, f"sweep {sname!r} has fewer than 2 points")
        xs = [r["counts"][first["x"]] for r in members]
        ys = [r["counts"]["predicate_evals"] + r["counts"]["cut_steps"]
              for r in members]
        slope = loglog_slope(xs, ys)
        if not close(first["loglog_slope"], slope):
            fail(path, f"sweep {sname!r} slope {first['loglog_slope']} != "
                       f"{slope:.6g} recomputed from its counts")


def check_paper_bounds(path, rows):
    """The paper's claims as assertions on the counts. A failure here is a
    finding about the code, not a reason to change the sweep."""
    by_name = {r["name"]: r for r in rows}
    for row in rows:
        name, c = row["name"], row["counts"]
        n, e = c["procs"], c["events"]
        work = c["predicate_evals"] + c["cut_steps"]
        algo = row_algorithm(row)
        if algo in WORK_BOUNDS:
            cn, k = WORK_BOUNDS[algo]
            if not e >= n >= 2:
                fail(path, f"row {name!r}: the {algo} bound needs "
                           f"|E| >= n >= 2 (|E|={e}, n={n})")
            if work > cn * n * e + k:
                fail(path, f"row {name!r}: {algo} work {work} exceeds "
                           f"{cn}*n*|E| + {k} = {cn * n * e + k}")
        # A2 evaluates the final cut and one cut per meet-irreducible.
        if algo == "A2-ag-linear" and c["predicate_evals"] > e + 1:
            fail(path, f"row {name!r}: A2 evaluated {c['predicate_evals']} "
                       f"cuts, more than |E| + 1 = {e + 1}")
        # Independent processes of k events each: (k + 1)^n cuts.
        if ".independent." in name:
            per, rem = divmod(e, n)
            if rem or c["lattice_nodes"] != (per + 1) ** n:
                fail(path, f"row {name!r}: {c['lattice_nodes']} cuts, "
                           f"expected (k+1)^n with |E|={e}, n={n}")
        # A chain is a total order: |E| + 1 cuts.
        if ".chain." in name and c["lattice_nodes"] != e + 1:
            fail(path, f"row {name!r}: {c['lattice_nodes']} cuts on a chain "
                       f"of {e} events, expected {e + 1}")
        facts = row.get("facts", {})
        # Birkhoff: exactly one meet-irreducible per event (|M(L)| = |E|),
        # and every cut is the meet of those above it (Corollary 4).
        if "meet_irreducibles" in facts and facts["meet_irreducibles"] != e:
            fail(path, f"row {name!r}: |M(L)| = {facts['meet_irreducibles']}"
                       f" != |E| = {e}")
        if facts.get("mismatches", 0) != 0:
            fail(path, f"row {name!r}: {facts['mismatches']} cuts differ "
                       f"from their Birkhoff reconstruction")
        # Fig. 3: EG on the SAT gadget answers satisfiability.
        if "dpll_sat" in facts and \
                row_verdict(row) != ("true" if facts["dpll_sat"] else "false"):
            fail(path, f"row {name!r}: verdict {row_verdict(row)!r} "
                       f"disagrees with DPLL (sat={facts['dpll_sat']})")
    # Fig. 4: the 13-cut lattice, 7 witness prefixes, 2 of them through I_q.
    fig4 = by_name.get("fig4.exact")
    if fig4 is None:
        fail(path, "no fig4.exact row")
    facts = fig4.get("facts", {})
    got = (fig4["counts"]["lattice_nodes"], facts.get("witnesses"),
           facts.get("witnesses_via_iq"))
    if got != (13, 7, 2):
        fail(path, f"fig4.exact: (cuts, witnesses, via I_q) = {got}, "
                   f"the paper says (13, 7, 2)")
    # Fig. 3: UNSAT inputs force EG over the whole hypercube, so its cut
    # steps at least double from m to m + 2; tautologies hold under AG.
    unsat = sorted((int(r["name"].rsplit("=", 1)[1]), r) for r in rows
                   if r["name"].startswith("fig3.eg_oi_unsat.m="))
    if len(unsat) < 2:
        fail(path, "fewer than 2 fig3.eg_oi_unsat rows")
    for (m0, r0), (m1, r1) in zip(unsat, unsat[1:]):
        if row_verdict(r0) != "false":
            fail(path, f"row {r0['name']!r}: UNSAT gadget verdict "
                       f"{row_verdict(r0)!r}")
        if m1 != m0 + 2 or \
                r1["counts"]["cut_steps"] < 2 * r0["counts"]["cut_steps"]:
            fail(path, f"rows {r0['name']!r} -> {r1['name']!r}: cut steps "
                       f"{r0['counts']['cut_steps']} -> "
                       f"{r1['counts']['cut_steps']} do not double")
    for r in rows:
        if r["name"].startswith("fig3.ag_oi_tautology.") and \
                row_verdict(r) != "true":
            fail(path, f"row {r['name']!r}: tautology gadget verdict "
                       f"{row_verdict(r)!r}")


def compare_paper(path, rows, ref_path):
    """Counts, facts, labels and sweeps must equal the reference document's
    row for row: the counts are deterministic for the bench's seeds."""
    with open(ref_path, encoding="utf-8") as f:
        ref = json.load(f)
    if ref.get("bench") != "paper":
        fail(ref_path, "reference is not a paper bench document")
    want = {r["name"]: r for r in ref["rows"]}
    have = {r["name"]: r for r in rows}
    diffs = [f"row {n!r} missing" for n in want if n not in have]
    diffs += [f"row {n!r} not in the reference" for n in have
              if n not in want]
    for name, row in have.items():
        old = want.get(name)
        if old is None:
            continue
        for k in sorted(PAPER_COUNTS):
            if row["counts"][k] != old["counts"][k]:
                diffs.append(f"row {name!r} {k}: {old['counts'][k]} -> "
                             f"{row['counts'][k]}")
        if row.get("facts") != old.get("facts"):
            diffs.append(f"row {name!r} facts: {old.get('facts')} -> "
                         f"{row.get('facts')}")
        if row["label"] != old["label"]:
            diffs.append(f"row {name!r} label: {old['label']!r} -> "
                         f"{row['label']!r}")
        s, t = row.get("sweep"), old.get("sweep")
        if (s is None) != (t is None) or (s is not None and (
                s["name"] != t["name"] or s["x"] != t["x"] or
                not close(s["loglog_slope"], t["loglog_slope"]))):
            diffs.append(f"row {name!r} sweep: {t} -> {s}")
    if diffs:
        fail(path, f"{len(diffs)} difference(s) from {ref_path}:\n  " +
             "\n  ".join(diffs))


def check_paper(path, rows, reference=None):
    names = [r["name"] for r in rows]
    if len(set(names)) != len(names):
        fail(path, "duplicate row names")
    for row in rows:
        check_paper_row(path, row)
    check_paper_sweeps(path, rows)
    check_paper_bounds(path, rows)
    if reference is not None:
        compare_paper(path, rows, reference)


def check_bench(path, doc, require_met=frozenset(), reference=None):
    if not isinstance(doc.get("rows"), list) or not doc["rows"]:
        fail(path, "no rows")
    for row in doc["rows"]:
        for k in ("name", "label", "iters", "ns", "report"):
            if k not in row:
                fail(path, f"row {row.get('name', '?')!r} missing {k!r}")
        ns = row["ns"]
        if not SUMMARY_KEYS <= ns.keys():
            fail(path, f"row {row['name']!r} summary incomplete")
        if not ns["p50"] <= ns["p90"] <= ns["p99"]:
            fail(path, f"row {row['name']!r} percentiles not monotone")
        if not ns["min"] <= ns["median"] <= ns["max"]:
            fail(path, f"row {row['name']!r} median outside [min, max]")
        if row["report"] is not None:
            check_report(f"{path}:{row['name']}", row["report"])
        if "streaming" in row:
            check_streaming(path, row["name"], row["streaming"])
        if "watch" in row:
            check_watch(path, row["name"], row["watch"], require_met)
        if "ingest" in row:
            check_ingest(path, row["name"], row["ingest"])
    if doc.get("bench") == "paper":
        check_paper(path, doc["rows"], reference)
        if reference is not None:
            return f"paper bench ({len(doc['rows'])} rows, counts match)"
    return f"bench ({len(doc['rows'])} rows)"


def check_chrome(path, doc):
    """Chrome trace_event JSON. Capture exports (Tracer::chrome_trace_json)
    give every span an "id" and "parent" arg under the same rule as
    check_spans: the id is the span's position among the "X" events and the
    parent is -1 or an earlier id. Flight dumps carry no ids."""
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(path, "no traceEvents")
    phases = {"X", "i", "M"}
    spans = 0
    for i, e in enumerate(events):
        if e.get("ph") not in phases:
            fail(path, f"event {i} has unexpected ph {e.get('ph')!r}")
        if e["ph"] != "X":
            continue
        if "ts" not in e or "dur" not in e:
            fail(path, f"event {i} ({e.get('name')!r}) missing ts/dur")
        args = e.get("args", {})
        if "id" in args:
            if args["id"] != spans:
                fail(path, f"span event {i} has id {args['id']}, "
                           f"expected {spans}")
            parent = args.get("parent")
            if not (parent == -1 or
                    (isinstance(parent, int) and 0 <= parent < spans)):
                fail(path, f"span event {i} has dangling parent {parent!r}")
        spans += 1
    return f"chrome trace ({len(events)} events)"


EXPOSITION_TYPES = {"counter", "gauge", "histogram"}


def check_exposition(path, text):
    """Prometheus text-format scrape (obs/expose.h render_prometheus):
    every hbct_ sample belongs to a declared TYPE family, counters carry the
    _total suffix, and histogram bucket series are cumulative-monotone with
    a final +Inf bucket equal to _count."""
    families = {}          # family -> type
    hist = {}              # (family, labels-sans-le) -> [(le, cum), ...]
    hist_count = {}        # same key -> _count value
    nsamples = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[3] not in EXPOSITION_TYPES:
                    fail(path, f"line {lineno}: unknown type {parts[3]!r}")
                families[parts[2]] = parts[3]
            continue
        try:
            name_labels, value = line.rsplit(None, 1)
            val = float(value)
        except ValueError:
            fail(path, f"line {lineno}: malformed sample {line!r}")
        if "{" in name_labels:
            name, labels = name_labels.split("{", 1)
            labels = "{" + labels
        else:
            name, labels = name_labels, ""
        if not name.startswith("hbct_"):
            continue
        nsamples += 1
        # Resolve the sample to its family: exact (gauge/counter) or the
        # histogram series suffixes.
        if name in families:
            family = name
            if families[family] == "counter" and not name.endswith("_total"):
                fail(path, f"line {lineno}: counter sample {name!r} "
                           f"without _total suffix")
        else:
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    family = name[: -len(suffix)]
                    break
            else:
                fail(path, f"line {lineno}: sample {name!r} has no TYPE line")
            if families[family] != "histogram":
                fail(path, f"line {lineno}: {name!r} series on "
                           f"non-histogram family {family!r}")
            if name.endswith("_bucket"):
                if 'le="' not in labels:
                    fail(path, f"line {lineno}: bucket without le label")
                pre, rest = labels.split('le="', 1)
                le, post = rest.split('"', 1)
                # Drop the comma that separated le from its neighbors.
                sans_le = (pre + post).replace(',}', '}').replace('{,', '{')
                sans_le = sans_le.replace(',,', ',')
                if sans_le == "{}":
                    sans_le = ""
                key = (family, sans_le)
                series = hist.setdefault(key, [])
                if series and val < series[-1][1]:
                    fail(path, f"line {lineno}: histogram {family!r} "
                               f"buckets not monotone")
                if series and series[-1][0] == "+Inf":
                    fail(path, f"line {lineno}: bucket after +Inf")
                series.append((le, val))
            elif name.endswith("_count"):
                hist_count[(family, labels)] = val
    for (family, labels), series in hist.items():
        if not series or series[-1][0] != "+Inf":
            fail(path, f"histogram {family!r}{labels} missing +Inf bucket")
        count = hist_count.get((family, labels))
        if count is None:
            fail(path, f"histogram {family!r}{labels} missing _count")
        if series[-1][1] != count:
            fail(path, f"histogram {family!r}{labels} +Inf bucket "
                       f"{series[-1][1]} != _count {count}")
    if nsamples == 0:
        fail(path, "no hbct_ samples")
    return f"exposition ({len(families)} families, {nsamples} samples)"


def check_file(path, require_met=frozenset(), reference=None):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        # Not JSON: a Prometheus exposition scrape is the only text kind.
        if "# TYPE hbct_" in text:
            return check_exposition(path, text)
        raise
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == "hbct.report/1":
        return check_report(path, doc)
    if schema == "hbct.bench/1":
        return check_bench(path, doc, require_met, reference)
    if isinstance(doc, dict) and "traceEvents" in doc:
        return check_chrome(path, doc)
    fail(path, "unrecognized document (no known schema marker)")


def main(argv):
    # --require-met-p99 CLASS (repeatable): fail any bench_watch row of that
    # class whose p99 missed the latency objective.
    # --reference FILE: compare a paper bench document's counts with FILE.
    require_met = set()
    reference = None
    paths = []
    args = argv[1:]
    while args:
        a = args.pop(0)
        if a == "--reference":
            if not args:
                print("--reference needs a file", file=sys.stderr)
                return 64
            reference = args.pop(0)
        elif a == "--require-met-p99":
            if not args:
                print("--require-met-p99 needs a watch class",
                      file=sys.stderr)
                return 64
            cls = args.pop(0)
            if cls not in WATCH_CLASSES:
                print(f"--require-met-p99: unknown class {cls!r}",
                      file=sys.stderr)
                return 64
            require_met.add(cls)
        else:
            paths.append(a)
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    for path in paths:
        result = check_file(path, frozenset(require_met), reference)
        print(f"{path}: ok ({result})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
