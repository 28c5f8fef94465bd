#!/usr/bin/env python3
"""Compares two sets of benchmark runs (no dependencies beyond Python 3).

    python3 perfbench/compare.py A.txt B.txt     # A = baseline, B = change
    python3 perfbench/compare.py A.txt           # one set: medians and spread

A set of runs is the captured stdout of perfbench/run.py, any number of
runs appended to one file, e.g.

    for s in 1 2 3; do python3 perfbench/run.py --workload rmat20 --seed $s >> A.txt; done

Each run starts with its "# perfbench <workload> seed=<n> ..." line and
carries one "metric <name> <value> <unit> <better>" line per metric (the
gated end-to-end metrics and the workload-specific ones such as
commit_p50_ms).  <better> is "higher" or "lower"; metrics marked "-"
(sample counts, steal share) are not compared.

For every workload and metric the report gives each side's median and
quartiles (statistics.quantiles, n=4), the spread (IQR / median), and for
two sets the share of pairs the change won: the i-th run of A is paired
with the i-th run of B of the same workload, so make the runs
interleaved (A, B, A, B, ...) and with the same seeds.  A gated metric
whose B median is worse than A's by more than its BENCHMARK.json bound
is flagged REGRESSION; one whose spread exceeds the bound is UNRESOLVED.
"""
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    """Gated end-to-end metrics: name -> bound."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def parse_runs(path):
    """{workload: [{metric: (value, better)}, ...]} in file order."""
    runs = {}
    current = None
    header = re.compile(r"^# perfbench (\S+) seed=")
    with open(path) as f:
        for line in f:
            m = header.match(line)
            if m:
                current = {}
                runs.setdefault(m.group(1), []).append(current)
                continue
            parts = line.split()
            if current is not None and len(parts) == 5 and parts[0] == "metric":
                current[parts[1]] = (float(parts[2]), parts[4])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(x):
    return f"{x:.6g}"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    bounds = load_bounds()
    sides = [parse_runs(p) for p in sys.argv[1:]]
    both = len(sides) == 2
    status = 0
    for workload in sorted(set().union(*[s.keys() for s in sides])):
        print(f"== {workload}: " + " vs ".join(str(len(s.get(workload, []))) + " runs" for s in sides))
        better_of = {}
        for s in sides:
            for run in s.get(workload, []):
                for n, (_, better) in run.items():
                    if better in ("higher", "lower"):
                        better_of.setdefault(n, better)
        for name, better in better_of.items():
            bound = bounds.get(name)
            cols = []
            stats = []
            for s in sides:
                values = [r[name][0] for r in s.get(workload, []) if name in r]
                if not values:
                    cols.append("-")
                    stats.append(None)
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / abs(med) if med else float("inf")
                stats.append((values, med, spread))
                cols.append(f"median {fmt(med)} [{fmt(q1)}, {fmt(q3)}] spread {spread:.3f}")
            line = f"  {name:<22} " + "  |  ".join(cols)
            flags = []
            if bound is not None:
                if any(st and st[2] > bound for st in stats):
                    flags.append(f"UNRESOLVED (spread > bound {bound})")
                if both and all(stats):
                    a, b = stats[0][1], stats[1][1]
                    worse = (a - b) / abs(a) if better == "higher" else (b - a) / abs(a)
                    if worse > bound:
                        flags.append(f"REGRESSION ({100 * worse:.1f}% worse, bound {100 * bound:.0f}%)")
                        status = 1
            if both and all(stats):
                pairs = list(zip(stats[0][0], stats[1][0]))
                won = sum(1 for a, b in pairs if (b > a if better == "higher" else b < a))
                lost = sum(1 for a, b in pairs if (b < a if better == "higher" else b > a))
                line += f"  |  B won {won}/{len(pairs)} pairs, lost {lost}"
            print(line + ("  " + "; ".join(flags) if flags else ""))
    sys.exit(status)


if __name__ == "__main__":
    main()
