#!/usr/bin/env python3
"""CI regression gate for the telemetry-plane bench artifact.

Compares the gated ratio of each workload in a freshly generated
BENCH_obs.json against the committed baseline in bench-baselines/ and
fails when any workload regresses by more than the tolerance (default
15%). The ratio is higher-is-better:

  `exporter_throughput_ratio` — unscraped collection wall time over the
  wall time with the telemetry exporter being scraped throughout.

The gate deliberately compares a *dimensionless* ratio rather than
absolute items/s or seconds, so it is portable across runner hardware
generations: a slower machine slows both modes alike.

Usage:
    scripts/check_bench_regression.py CURRENT BASELINE [--tolerance 0.15]
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path} is not valid JSON: {e}")


GATED_RATIO = "exporter_throughput_ratio"


def by_workload(doc, path):
    rows = {}
    for entry in doc.get("workloads", []):
        name = entry.get("workload")
        speedup = entry.get(GATED_RATIO)
        if name is None or not isinstance(speedup, (int, float)) or speedup <= 0:
            sys.exit(f"error: {path}: malformed workload entry {entry!r}")
        rows[name] = float(speedup)
    if not rows:
        sys.exit(f"error: {path} contains no workloads")
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="freshly generated BENCH_obs.json")
    ap.add_argument("baseline", help="committed baseline BENCH_obs.json")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="maximum allowed fractional regression (default: 0.15)",
    )
    args = ap.parse_args()

    current = by_workload(load(args.current), args.current)
    baseline = by_workload(load(args.baseline), args.baseline)

    failures = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from {args.current}")
            continue
        delta = (cur - base) / base
        status = "ok"
        if cur < base * (1.0 - args.tolerance):
            status = "REGRESSION"
            failures.append(
                f"{name}: {GATED_RATIO} {cur:.3f} vs baseline "
                f"{base:.3f} ({delta:+.1%} > -{args.tolerance:.0%} allowed)"
            )
        print(
            f"{name:<16} ratio {cur:.3f}  baseline {base:.3f}  "
            f"delta {delta:+.1%}  {status}"
        )

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("\nbench regression gate passed "
          f"(tolerance {args.tolerance:.0%}, {len(baseline)} workloads)")


if __name__ == "__main__":
    main()
