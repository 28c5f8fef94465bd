#!/usr/bin/env python3
"""Summarizes a Chrome trace-event file from an agglomeration run.

    python3 scripts/trace_summary.py TRACE.json [--levels N]

The input is the JSON that `perfbench --trace 1` writes ("X" complete
events whose args carry the span's `id`, its `parent` and its
attributes).  For every `agglomerate` span in the file it prints

  * the total self time (a span's duration minus its children's) of
    each span name under it, largest first, and
  * a per-level table: vertices and edges entering the level, score and
    match time, matcher sweeps, contraction time and each of its
    sub-passes (contract.count, .scatter, .sort, .copy, ...), and the
    bytes of fresh memory the contraction sized (`fresh_bytes`).

The first N levels (default 10) get a row each; the rest are summed in
one row.  Standard library only.
"""
import argparse
import json
import signal
import sys
from collections import defaultdict


def load_spans(path):
    """Returns {id: span} with each span's children listed in start order."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = ev["args"]
        spans[args["id"]] = {
            "name": ev["name"],
            "ts": float(ev["ts"]),
            "dur": float(ev["dur"]),
            "parent": args["parent"],
            "args": args,
            "children": [],
        }
    for span in spans.values():
        parent = spans.get(span["parent"])
        if parent is not None:
            parent["children"].append(span)
    for span in spans.values():
        span["children"].sort(key=lambda c: c["ts"])
    return spans


def walk(span):
    yield span
    for child in span["children"]:
        yield from walk(child)


def self_times(root):
    """Total self time in ms per span name in root's subtree."""
    totals = defaultdict(float)
    for span in walk(root):
        own = span["dur"] - sum(c["dur"] for c in span["children"])
        totals[span["name"]] += own / 1e3
    return totals


def child(span, name):
    return next((c for c in span["children"] if c["name"] == name), None)


def level_row(level):
    """One level span as {column: value}; times in ms."""
    args = level["args"]
    row = {
        "level": args.get("level", 0),
        "nv": args.get("nv_before", 0),
        "ne": args.get("ne_before", 0),
        "sub": defaultdict(float),
    }
    score = child(level, "score")
    match = child(level, "match")
    contract = child(level, "contract")
    row["score"] = score["dur"] / 1e3 if score else 0.0
    row["match"] = match["dur"] / 1e3 if match else 0.0
    row["sweeps"] = match["args"].get("sweeps", 0) if match else 0
    row["contract"] = contract["dur"] / 1e3 if contract else 0.0
    row["fresh_bytes"] = contract["args"].get("fresh_bytes", 0) if contract else 0
    if contract:
        for span in walk(contract):
            if span is not contract and span["name"].startswith("contract."):
                row["sub"][span["name"]] += span["dur"] / 1e3
    return row


def print_table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  " + "  ".join(str(v).rjust(w) for v, w in zip(r, widths)))


def summarize(agg, shown_levels):
    args = agg["args"]
    print(f"agglomerate: {agg['dur'] / 1e3:.1f} ms, levels={args.get('levels', '?')}, "
          f"termination={args.get('termination', '?')}, nv={args.get('nv', '?')}, "
          f"ne={args.get('ne', '?')}")
    print("self time by span name (ms):")
    totals = self_times(agg)
    for name, ms in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<24} {ms:10.1f}")

    rows = [level_row(s) for s in agg["children"] if s["name"] == "level"]
    if not rows:
        return
    subs = []
    for r in rows:
        for name in r["sub"]:
            if name not in subs:
                subs.append(name)
    header = ["level", "nv", "ne", "score_ms", "match_ms", "sweeps", "contract_ms"]
    header += [s.removeprefix("contract.") + "_ms" for s in subs] + ["fresh_bytes"]

    def cells(label, group):
        out = [label, group[0]["nv"], group[0]["ne"]]
        for key in ("score", "match"):
            out.append(f"{sum(r[key] for r in group):.1f}")
        out.append(sum(r["sweeps"] for r in group))
        out.append(f"{sum(r['contract'] for r in group):.1f}")
        out += [f"{sum(r['sub'][s] for r in group):.1f}" for s in subs]
        out.append(sum(r["fresh_bytes"] for r in group))
        return out

    table = [cells(r["level"], [r]) for r in rows[:shown_levels]]
    rest = rows[shown_levels:]
    if rest:
        table.append(cells(f"{rest[0]['level']}+", rest))
    table.append(cells("total", rows))
    print("per level (a summed row shows the nv/ne of its first level):")
    print_table(header, table)


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("trace", help="Chrome trace-event JSON")
    p.add_argument("--levels", type=int, default=10, help="levels shown one per row")
    args = p.parse_args()
    spans = load_spans(args.trace)
    aggs = sorted((s for s in spans.values() if s["name"] == "agglomerate"),
                  key=lambda s: s["ts"])
    if not aggs:
        sys.exit(f"{args.trace}: no agglomerate span")
    for i, agg in enumerate(aggs):
        if i:
            print()
        print(f"[{i + 1}/{len(aggs)}] ", end="")
        summarize(agg, args.levels)


if __name__ == "__main__":
    main()
