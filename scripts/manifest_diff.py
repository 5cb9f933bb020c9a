#!/usr/bin/env python3
"""Diff two run manifests under the exec determinism contract.

Usage: manifest_diff.py [--hist-rtol R] A.manifest.json B.manifest.json

Compares everything that is supposed to be deterministic across
`DCN_EXEC_THREADS` values:

  * manifest `name`, `seed`, and `mode`
  * the set of (metric name, kind) pairs
  * every **counter** value (solver iteration counts, pool task counts,
    short-circuits, fallback counts, ... are all scheduling-independent)

Histogram p50/p99 quantiles are additionally compared with a relative
tolerance (`--hist-rtol`, default 0.25) — value-distribution histograms
(matrix sizes, frontier peaks, coarsening levels) are deterministic, but
their quantile estimates live on log-bucket boundaries, so a tolerance
absorbs estimator wobble. Histograms whose name ends in `_ns`, `_secs`,
or `_seconds` record durations and are skipped outright: e.g.
`exec.pool.worker_busy_ns` legitimately varies with the worker count.

Deliberately excluded, because they are *allowed* to differ between
runs or thread counts:

  * `threads` (the whole point of the smoke test)
  * `wall_seconds` and `args`
  * gauge / span values and duration histograms (they carry thread
    counts and wall-clock durations; their *presence* is still checked)

Exit codes:

  0  manifests agree
  1  deterministic fields differ (name/seed/mode, metric sets, counters)
  2  only perf fields differ (histogram quantiles beyond tolerance)
"""

import json
import sys

DURATION_SUFFIXES = ("_ns", "_secs", "_seconds")
QUANTILE_FIELDS = ("p50", "p99")


def load(path):
    with open(path) as f:
        return json.load(f)


def rel_close(a, b, rtol):
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return True
    return abs(a - b) <= rtol * scale


def main():
    argv = sys.argv[1:]
    rtol = 0.25
    if "--hist-rtol" in argv:
        at = argv.index("--hist-rtol")
        try:
            rtol = float(argv[at + 1])
        except (IndexError, ValueError):
            sys.exit("--hist-rtol needs a numeric value")
        del argv[at : at + 2]
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = load(argv[0]), load(argv[1])
    errors = []  # deterministic differences -> exit 1
    perf_errors = []  # quantile differences -> exit 2

    for key in ("name", "seed", "mode"):
        if a.get(key) != b.get(key):
            errors.append(f"{key}: {a.get(key)!r} != {b.get(key)!r}")

    ma = {(m["name"], m["kind"]): m for m in a.get("metrics", [])}
    mb = {(m["name"], m["kind"]): m for m in b.get("metrics", [])}
    for missing in sorted(set(ma) ^ set(mb)):
        side = "only in A" if missing in ma else "only in B"
        errors.append(f"metric {missing[0]} ({missing[1]}): {side}")

    for key in sorted(set(ma) & set(mb)):
        name, kind = key
        if kind == "counter":
            va, vb = ma[key]["fields"], mb[key]["fields"]
            if va != vb:
                errors.append(f"counter {name}: {va} != {vb}")
        elif kind == "histogram" and not name.endswith(DURATION_SUFFIXES):
            fa, fb = ma[key]["fields"], mb[key]["fields"]
            for q in QUANTILE_FIELDS:
                if q not in fa or q not in fb:
                    continue
                if not rel_close(fa[q], fb[q], rtol):
                    perf_errors.append(
                        f"histogram {name} {q}: {fa[q]} vs {fb[q]} "
                        f"(beyond rtol {rtol})"
                    )

    if errors or perf_errors:
        total = len(errors) + len(perf_errors)
        print(f"manifest diff: {total} difference(s)")
        for e in errors:
            print(f"  [deterministic] {e}")
        for e in perf_errors:
            print(f"  [perf] {e}")
        sys.exit(1 if errors else 2)
    print("manifests agree on all deterministic fields")


if __name__ == "__main__":
    main()
