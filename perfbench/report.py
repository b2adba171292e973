#!/usr/bin/env python3
"""Per-layer report: turns traced benchmark trials into the layer table.

A traced trial (``run.py --trace 1``) leaves one JSON file per trial under
``<build dir>/traces/<workload>/``: the benchmark's spans, the deltas of the
program's ``clio.*`` registry over the measured phase and the whole trial,
space accounting, recovery figures and timed single-function calls. This
module computes every per-layer metric from such a file, and, run as a
command, prints the per-layer table (markdown) for every workload traced:

    python3 perfbench/report.py [--build-dir .bench_build] [--out FILE]
"""

import argparse
import glob
import json
import math
import os
import statistics
import sys

# (layer, metric, unit, end-to-end metric it should move, workload)
LAYERS = [
    ("net", "net.client.call_us.p50", "us", "append_p50_us, locate_p50_us", "commit, history"),
    ("net", "net.stage.queue_us.p50", "us", "append_p50_us", "commit"),
    ("net", "net.stage.handle_us.p50", "us", "append_p50_us", "commit"),
    ("net", "net.stage.flush_us.p50", "us", "append_p50_us", "commit"),
    ("net", "net.batch.dwell_us.p50", "us", "append_p50_us", "commit"),
    ("net", "net.batch.entries.mean", "count", "appends_per_s, media_bytes_per_user_byte", "commit"),
    ("net", "net.batch.commit_us.p50", "us", "appends_per_s, media_bytes_per_user_byte", "commit"),
    ("net", "net.loop.wakeups_per_op", "count", "cpu_us_per_op", "commit"),
    ("net", "net.reply.zerocopy_share", "ratio", "scan_entries_per_s", "history"),
    ("net", "net.self_us.append", "us", "append_p50_us", "commit"),
    ("net", "net.self_us.locate", "us", "locate_p50_us", "history"),
    ("ipc", "codec.append_encode_ns", "ns", "cpu_us_per_op", "commit"),
    ("ipc", "codec.append_decode_ns", "ns", "cpu_us_per_op", "commit"),
    ("ipc", "frame.header_decode_ns", "ns", "cpu_us_per_op", "commit"),
    ("ipc", "codec.batch_decode_ns_per_entry", "ns", "scan_entries_per_s", "history"),
    ("clio", "service.append_self_ns", "ns", "user_mb_per_s, append_p50_us", "ingest, commit"),
    ("clio", "service.force_self_ns", "ns", "user_mb_per_s, append_p50_us", "ingest, commit"),
    ("clio", "volume.burns_per_force", "count", "media_bytes_per_user_byte", "commit, ingest"),
    ("clio", "volume.padding_bytes_per_user_byte", "ratio", "media_bytes_per_user_byte", "commit, ingest"),
    ("clio", "volume.overhead_bytes_per_user_byte", "ratio", "media_bytes_per_user_byte", "commit, ingest"),
    ("clio", "block.parse_ns_per_kib", "ns", "user_mb_per_s", "ingest"),
    ("clio", "chain.commit_ns_per_kib", "ns", "user_mb_per_s", "ingest"),
    ("clio", "reader.next_ns", "ns", "scan_entries_per_s", "history"),
    ("clio", "reader.seek_ns", "ns", "locate_p50_us", "history"),
    ("clio", "locate.blocks_read", "count", "locate_p99_us", "history"),
    ("clio", "locate.entrymap_entries_examined", "count", "locate_p99_us", "history"),
    ("cache", "cache.hit_ratio", "ratio", "locate_p99_us, scan_entries_per_s", "history"),
    ("cache", "cache.evictions_per_op", "count", "locate_p99_us, peak_rss_mb", "history"),
    ("cache", "cache.readahead_blocks_per_miss", "count", "scan_entries_per_s", "history"),
    ("cache", "cache.pinned_blocks.max", "count", "peak_rss_mb", "history"),
    ("index", "index.hit_ratio", "ratio", "locate_p50_us", "history"),
    ("index", "index.recover_ms", "ms", "setup_s", "history"),
    ("index", "index.checkpoint_replay_blocks", "count", "setup_s", "history"),
    ("index", "index.rebuilds", "count", "setup_s", "history"),
    ("device", "device.burn_ns", "ns", "append_p50_us", "commit"),
    ("device", "device.burns_per_op", "count", "append_p50_us", "commit"),
    ("device", "device.read_ns", "ns", "locate_p99_us", "history"),
    ("device", "device.reads_per_locate", "count", "locate_p99_us", "history"),
    ("device", "device.blocks_per_read_pass", "count", "locate_p99_us", "history"),
    ("util", "util.sha256_mb_per_s", "MB/s", "user_mb_per_s", "ingest"),
    ("util", "util.crc32c_mb_per_s", "MB/s", "user_mb_per_s", "ingest"),
    ("scrub", "scrub.blocks_scanned_per_s", "1/s", "user_mb_per_s", "ingest"),
    ("scrub", "scrub.passes", "count", "user_mb_per_s", "ingest"),
    ("obs", "telemetry.samples", "count", "cpu_us_per_op", "all"),
    ("obs", "trace.overhead_ratio", "ratio", "cpu_us_per_op", "all"),
    ("generator", "gen.lateness_us.p99", "us", "validity of append_*", "history"),
]


def hist_percentile(hist, p):
    """HistogramSnapshot::Percentile over a registry-delta histogram."""
    if not hist or hist["count"] == 0:
        return 0.0
    count = hist["count"]
    rank = max(1, int(p * count))
    cumulative = 0
    for i, n in enumerate(hist["buckets"]):
        if n == 0:
            continue
        if cumulative + n >= rank:
            lower = 0.0 if i == 0 else float(1 << (i - 1))
            upper = float(1 << i)
            value = lower + (upper - lower) * (rank - cumulative) / n
            return min(value, float(hist["max"]))
        cumulative += n
    return float(hist["max"])


def nearest_rank(values, p):
    """Nearest-rank percentile, as the trial binary computes it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


class Spans:
    """Spans of one trial, indexed for self-time and attribution queries."""

    def __init__(self, rows):
        self.rows = [
            {"name": r[0], "start": r[1], "end": r[2], "id": r[3],
             "parent": r[4], "trace": r[5], "op": r[6], "arg": r[7],
             "replay": bool(r[8])}
            for r in rows
        ]
        self.children = {}
        for s in self.rows:
            if s["parent"]:
                self.children.setdefault(s["parent"], []).append(s)

    def named(self, name, replay=None, window=None):
        out = []
        for s in self.rows:
            if s["name"] != name:
                continue
            if replay is not None and s["replay"] != replay:
                continue
            if window and not window[0] <= s["start"] <= window[1]:
                continue
            out.append(s)
        return out

    def self_ns(self, span):
        """Duration minus the part of it that child spans cover."""
        covered = 0
        cursor = span["start"]
        for c in sorted(self.children.get(span["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span["end"] - span["start"] - covered


def dur(s):
    return s["end"] - s["start"]


def per_layer(trace):
    """Every per-layer metric of one traced trial, by name."""
    phase = trace["registry_phase"]
    whole = trace["registry_trial"]
    ops = trace["phase_ops"] or 1
    seconds = trace["phase_s"] or 1.0
    micro = trace["micro"]
    space = trace["space"]
    user = trace["user_bytes"] or 1
    spans = Spans(trace["spans"])
    window = (trace["phase_start_ns"], trace["phase_end_ns"])

    def counter(name, delta=phase):
        return delta["counters"].get(name, 0)

    def hist(name):
        return phase["histograms"].get(name)

    m = {}
    m["net.client.call_us.p50"] = hist_percentile(hist("clio.net.client.call_us"), 0.5)
    for stage in ("queue", "handle", "flush"):
        m[f"net.stage.{stage}_us.p50"] = hist_percentile(
            hist(f"clio.net.stage.{stage}_us"), 0.5)
    m["net.batch.dwell_us.p50"] = hist_percentile(hist("clio.net.batch.dwell_us"), 0.5)
    entries = hist("clio.net.batch.entries")
    m["net.batch.entries.mean"] = ratio(entries["sum"], entries["count"]) if entries else 0.0
    m["net.batch.commit_us.p50"] = hist_percentile(hist("clio.net.batch.commit_us"), 0.5)
    m["net.loop.wakeups_per_op"] = counter("clio.net.loop.wakeups") / ops
    m["net.reply.zerocopy_share"] = ratio(counter("clio.net.reply.zerocopy_bytes"),
                                          counter("clio.net.server.bytes_out"))

    # Wire self time: the client's span for an op minus what the same op
    # cost in the in-process replay.
    appends = spans.named("service.append", replay=True)
    forces = spans.named("service.force", replay=True)
    force_share = ratio(sum(dur(s) for s in forces), len(appends))
    service_cost = {s["op"]: dur(s) + force_share for s in appends}
    m["net.self_us.append"] = median([
        (dur(s) - service_cost[s["op"]]) / 1e3
        for s in spans.named("client.append") if s["op"] in service_cost
    ])
    reader_cost = {}
    for name in ("reader.open", "reader.seek", "reader.prev"):
        for s in spans.named(name, replay=True):
            reader_cost[s["op"]] = reader_cost.get(s["op"], 0) + dur(s)
    m["net.self_us.locate"] = median([
        (dur(s) - reader_cost[s["op"]]) / 1e3
        for s in spans.named("client.locate") if s["op"] in reader_cost
    ])

    for name in ("codec.append_encode_ns", "codec.append_decode_ns",
                 "frame.header_decode_ns", "codec.batch_decode_ns_per_entry",
                 "block.parse_ns_per_kib", "chain.commit_ns_per_kib",
                 "util.sha256_mb_per_s", "util.crc32c_mb_per_s"):
        m[name] = micro.get(name, 0.0)

    m["service.append_self_ns"] = median([spans.self_ns(s) for s in appends])
    m["service.force_self_ns"] = median([spans.self_ns(s) for s in forces])
    m["volume.burns_per_force"] = ratio(space["blocks_burned"],
                                        counter("clio.volume.forces", whole))
    m["volume.padding_bytes_per_user_byte"] = space["padding_bytes"] / user
    m["volume.overhead_bytes_per_user_byte"] = (
        space["total_burned"] - trace["user_bytes"] - space["padding_bytes"]) / user
    m["reader.next_ns"] = median([dur(s) for s in spans.named("reader.next", replay=True)])
    m["reader.seek_ns"] = median([dur(s) for s in spans.named("reader.seek", replay=True)])
    locates = trace["replay_locates"]
    m["locate.blocks_read"] = ratio(trace["replay_locate_stats"]["blocks_read"], locates)
    m["locate.entrymap_entries_examined"] = ratio(
        trace["replay_locate_stats"]["entrymap_entries_examined"], locates)

    hits, misses = counter("clio.cache.hits"), counter("clio.cache.misses")
    m["cache.hit_ratio"] = ratio(hits, hits + misses)
    m["cache.evictions_per_op"] = counter("clio.cache.evictions") / ops
    m["cache.readahead_blocks_per_miss"] = ratio(counter("clio.cache.readahead_blocks"), misses)
    m["cache.pinned_blocks.max"] = trace["pinned_max"]
    ihits, imisses = counter("clio.index.hits"), counter("clio.index.misses")
    m["index.hit_ratio"] = ratio(ihits, ihits + imisses)
    m["index.recover_ms"] = trace["recover_ms"]
    m["index.checkpoint_replay_blocks"] = trace["recovery"]["checkpoint_replay_blocks"]
    m["index.rebuilds"] = counter("clio.index.rebuilds", whole)

    burns = spans.named("device.burn", replay=False, window=window)
    m["device.burn_ns"] = median([dur(s) for s in burns])
    m["device.burns_per_op"] = len(burns) / ops
    m["device.read_ns"] = median(
        [dur(s) for s in spans.named("device.read", replay=False, window=window)])
    # Device blocks read on behalf of a wire locate: the reads whose trace
    # is one of the locate's requests.
    locate_ids = {s["id"] for s in spans.named("client.locate")}
    locate_traces = {s["trace"] for s in spans.named("client.call")
                     if s["parent"] in locate_ids}
    blocks = sum(s["arg"] for s in spans.rows
                 if s["name"] in ("device.read", "device.read_pass")
                 and s["trace"] in locate_traces)
    m["device.reads_per_locate"] = ratio(blocks, len(locate_ids))
    passes = spans.named("device.read_pass", replay=False, window=window)
    m["device.blocks_per_read_pass"] = median([s["arg"] for s in passes])

    m["scrub.blocks_scanned_per_s"] = counter("clio.scrub.blocks_scanned") / seconds
    m["scrub.passes"] = counter("clio.scrub.passes")
    m["telemetry.samples"] = counter("clio.telemetry.samples")
    m["trace.overhead_ratio"] = trace.get("overhead_ratio", 0.0)
    m["gen.lateness_us.p99"] = nearest_rank(trace["lateness_us"], 0.99)
    return m


def span_ledger(trace):
    """Per span name: calls per op and median / per-op self time in us."""
    spans = Spans(trace["spans"])
    ops = trace["phase_ops"] or 1
    replay_ops = len({s["op"] for s in spans.rows if s["replay"]}) or 1
    rows = {}
    for s in spans.rows:
        replay = s["replay"]
        if not replay and not (trace["phase_start_ns"] <= s["start"] <= trace["phase_end_ns"]):
            continue
        key = (s["name"], replay)
        rows.setdefault(key, []).append(spans.self_ns(s))
    out = []
    for (name, replay), selfs in sorted(rows.items()):
        per = replay_ops if replay else ops
        out.append({
            "span": name, "side": "replay" if replay else "wire",
            "per_op": len(selfs) / per,
            "self_us_p50": median(selfs) / 1e3,
            "self_us_per_op": sum(selfs) / per / 1e3,
        })
    return out


def load(path):
    with open(path) as f:
        return json.load(f)


def fmt(v):
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 100:
            return f"{v:.0f}"
        if abs(v) >= 1:
            return f"{v:.2f}"
        return f"{v:.4f}"
    return str(v)


def render(traces_by_workload):
    lines = ["# Per-layer table", "",
             "Written by `python3 perfbench/report.py` from the traced trials "
             "of `perfbench/run.py --trace 1` (see README.md).", ""]
    workloads = sorted(traces_by_workload)
    first = next(iter(traces_by_workload.values()))[0]
    fp = first["fingerprint"]
    lines.append(
        f"Machine: {fp['nproc']} CPUs, {fp['cpu_model']}, sha_ni={fp['sha_ni']}, "
        f"sse4_2={fp['sse4_2']}; build: {fp['compiler']}, {fp['build_type']}, "
        f"sanitizer {fp['sanitizer']}.")
    lines.append("")
    counts = ", ".join(
        f"{w}: {len(traces_by_workload[w])} traced trials, seed "
        + "/".join(str(s) for s in sorted({t['seed'] for t in traces_by_workload[w]}))
        for w in workloads)
    lines.append(f"Values are medians over traced trials ({counts}).")
    lines.append("")
    header = "| layer | metric | unit | " + " | ".join(workloads) + " | moves | on |"
    lines.append(header)
    lines.append("|" + "---|" * (5 + len(workloads)))
    values = {w: [per_layer(t) for t in traces_by_workload[w]] for w in workloads}
    for layer, metric, unit, moves, on in LAYERS:
        cells = [fmt(median([v[metric] for v in values[w]])) for w in workloads]
        lines.append(f"| {layer} | {metric} | {unit} | " + " | ".join(cells)
                     + f" | {moves} | {on} |")
    for w in workloads:
        lines.append("")
        lines.append(f"Span ledger, {w} (self time excludes child spans; wire "
                     f"spans per measured op, replay spans per replayed op):")
        lines.append("")
        lines.append("| span | side | calls/op | self us p50 | self us/op |")
        lines.append("|---|---|---|---|---|")
        for row in span_ledger(traces_by_workload[w][0]):
            lines.append(f"| {row['span']} | {row['side']} | {fmt(row['per_op'])} | "
                         f"{fmt(row['self_us_p50'])} | {fmt(row['self_us_per_op'])} |")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir",
                        default=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    parser.add_argument("--out", help="write the table here instead of stdout")
    args = parser.parse_args()
    traces = {}
    for path in sorted(glob.glob(os.path.join(args.build_dir, "traces", "*", "*.json"))):
        trace = load(path)
        traces.setdefault(trace["workload"], []).append(trace)
    if not traces:
        print("no traced trials found; run perfbench/run.py --trace 1 first",
              file=sys.stderr)
        return 1
    table = render(traces)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table)
    else:
        sys.stdout.write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
