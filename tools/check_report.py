#!/usr/bin/env python3
"""Schema checker for the observability artifacts.

    $ python3 tools/check_report.py report.json trace.json BENCH_table1.json

Auto-detects each file's kind and validates it:

  hbct.report/1   run report (src/obs/report.h)
  hbct.bench/1    bench artifact (bench/bench_report.h)
  Chrome trace    trace_event JSON (Tracer::chrome_trace_json and
                  FlightRecorder::dump_chrome)
  exposition      Prometheus text scrape (obs/expose.h render_prometheus)

Exit 0 when every file validates; the CI observability job runs this over
the artifacts produced by example_traced_detection and the bench binaries.
Stdlib only — mirrors, not replaces, the stricter in-process json_validate.
"""
import json
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


def check_bench(path, doc, require_met=frozenset()):
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


def check_file(path, require_met=frozenset()):
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
        return check_bench(path, doc, require_met)
    if isinstance(doc, dict) and "traceEvents" in doc:
        return check_chrome(path, doc)
    fail(path, "unrecognized document (no known schema marker)")


def main(argv):
    # --require-met-p99 CLASS (repeatable): fail any bench_watch row of that
    # class whose p99 missed the latency objective.
    require_met = set()
    paths = []
    args = argv[1:]
    while args:
        a = args.pop(0)
        if a == "--require-met-p99":
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
        print(f"{path}: ok ({check_file(path, frozenset(require_met))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
