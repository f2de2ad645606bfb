#!/usr/bin/env python3
"""Summarises one set of benchmark runs, or compares two.

    python3 perfbench/compare.py RUNS            # spread of one set
    python3 perfbench/compare.py BASE CHANGE     # verdict per metric

A set of runs is a directory (searched recursively) or a list of files.
Each file is either a run record the driver writes under
.bench_runs/<workload>/ (trace<T>-seed<N>.json), or a captured stdout of
perfbench/run.py: an "env {...}" line plus the result object as the last
line. Span files (spans-seed<N>.json) are skipped.

For every workload x metric it prints the median and quartiles
(statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median.

One set: the spread is checked against the metric's bound from
BENCHMARK.json; "steady" means below a third of the bound.

Two sets, metrics with a bound (the end-to-end ones):
  improved   CHANGE's median is better by more than BASE's own spread,
             and CHANGE wins at least 9 of 10 runs paired by seed order
  regressed  CHANGE's median is worse than BASE's by more than the bound
  unresolved either set's spread is wider than the bound
  unchanged  otherwise: within the bound
Per-layer metrics have no bound; their medians are listed side by side.
The exit status is 1 if any metric regressed, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return metrics


def parse_run(path):
    """Returns (workload, seed, trace, result) or None."""
    with open(path) as f:
        text = f.read()
    try:
        rec = json.loads(text)
        if isinstance(rec, dict) and "env" in rec and "result" in rec:
            env = rec["env"]
            return env["workload"], env["seed"], env["trace"], rec["result"]
    except json.JSONDecodeError:
        pass
    env = None
    result = None
    for line in text.splitlines():
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                pass
    if env is None or result is None or "metrics" not in result:
        return None
    return env["workload"], env["seed"], env["trace"], result


def collect(paths):
    """{(workload, trace): [(seed, result), ...]} sorted by seed."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _, names in os.walk(p):
                files += [os.path.join(root, n) for n in sorted(names)]
        else:
            files.append(p)
    runs = {}
    for path in files:
        if os.path.basename(path).startswith("spans-"):
            continue
        try:
            parsed = parse_run(path)
        except (OSError, ValueError, KeyError):
            parsed = None
        if parsed is None:
            continue
        workload, seed, trace, result = parsed
        runs.setdefault((workload, trace), []).append((seed, result))
    for v in runs.values():
        v.sort(key=lambda sr: sr[0])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def values_of(runs, name):
    return [r["metrics"][name]["value"] for _, r in runs
            if name in r.get("metrics", {})]


def report_one(runs, spec):
    print(f"{'workload':14} {'metric':34} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for (workload, trace), rs in sorted(runs.items()):
        bad = [seed for seed, r in rs if not r.get("correct")]
        if bad:
            print(f"{workload}: incorrect runs for seeds {bad}")
        names = sorted({n for _, r in rs for n in r.get("metrics", {})})
        for name in names:
            vals = values_of(rs, name)
            med, q1, q3, spread = summary(vals)
            bound = spec.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else "UNSTEADY"
                if name == "setup_s":
                    verdict += " (spread not bounded)"
            print(f"{workload:14} {name:34} {len(vals):3d} {med:12.4f} "
                  f"{q1:12.4f} {q3:12.4f} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}  {verdict}")


def verdict(base_vals, change_vals, m):
    b_med, _, _, b_spread = summary(base_vals)
    c_med, _, _, c_spread = summary(change_vals)
    lower = m["better"] == "lower"
    worse = (c_med - b_med) / b_med if lower else (b_med - c_med) / b_med
    pairs = list(zip(base_vals, change_vals))
    wins = sum(1 for b, c in pairs if (c < b if lower else c > b))
    if -worse > b_spread and pairs and wins >= 0.9 * len(pairs):
        return "improved", worse
    if worse > m["bound"]:
        return "regressed", worse
    if b_spread > m["bound"] or c_spread > m["bound"]:
        return "unresolved", worse
    return "unchanged", worse


def report_two(base, change, spec):
    regressed = False
    print(f"{'workload':14} {'metric':34} {'base':>12} {'change':>12} "
          f"{'worse':>8} {'bound':>6}  verdict")
    for key in sorted(set(base) | set(change)):
        workload, _ = key
        b_runs, c_runs = base.get(key, []), change.get(key, [])
        names = sorted({n for _, r in b_runs + c_runs
                        for n in r.get("metrics", {})})
        for name in names:
            bv, cv = values_of(b_runs, name), values_of(change.get(key, []),
                                                         name)
            if not bv or not cv:
                print(f"{workload:14} {name:34} missing in one set")
                continue
            m = spec.get(name)
            b_med, c_med = statistics.median(bv), statistics.median(cv)
            if m is None or "bound" not in m:
                print(f"{workload:14} {name:34} {b_med:12.4f} {c_med:12.4f}")
                continue
            v, worse = verdict(bv, cv, m)
            regressed |= v == "regressed"
            print(f"{workload:14} {name:34} {b_med:12.4f} {c_med:12.4f} "
                  f"{worse:8.4f} {m['bound']:>6}  {v}")
    return 1 if regressed else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    if len(argv) == 2:
        report_one(collect([argv[1]]), spec)
        return 0
    return report_two(collect([argv[1]]), collect([argv[2]]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
