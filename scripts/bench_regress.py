#!/usr/bin/env python3
"""Bench speedup regression guard.

Compares every numeric key containing "speedup" in freshly generated
`BENCH_*.json` files (working tree) against the committed baseline
(`git show HEAD:...`). Compare like with like: CI passes the
`BENCH_*.smoke.json` files the `--smoke` bench bins write, whose
committed copies are smoke runs too.

CI smoke runs are short and the runners are noisy, so this is a
guard-rail, not a benchmark: a fresh speedup may wobble below the
committed number without anything being wrong. We only fail
when a speedup collapses below `TOLERANCE` (default 0.5x) of its
baseline — the regime where an accidental O(n) -> O(n^2) slip or a
de-optimised hot path shows up regardless of runner noise.

Keys present only in the fresh file (new bench arms) or only in the
baseline (retired arms) are reported but never fail the build; the
comparison is over the intersection. Usage:

    python3 scripts/bench_regress.py BENCH_runtime.smoke.json BENCH_fabric.smoke.json ...
"""

import json
import subprocess
import sys

TOLERANCE = 0.5


def speedups(obj, prefix=""):
    """Flatten `obj` to {dotted.path: value} for numeric *speedup* keys."""
    out = {}
    if isinstance(obj, dict):
        for key, val in obj.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(val, (dict, list)):
                out.update(speedups(val, path))
            elif isinstance(val, (int, float)) and "speedup" in key.lower():
                out[path] = float(val)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            out.update(speedups(val, f"{prefix}[{i}]"))
    return out


def main(files):
    failures = []
    for name in files:
        try:
            committed = subprocess.run(
                ["git", "show", f"HEAD:{name}"],
                capture_output=True,
                check=True,
                text=True,
            ).stdout
        except subprocess.CalledProcessError:
            print(f"{name}: no committed baseline, skipping")
            continue
        base = speedups(json.loads(committed))
        with open(name) as fh:
            fresh = speedups(json.load(fh))
        for path in sorted(set(base) | set(fresh)):
            if path not in fresh:
                print(f"{name}: {path} only in baseline (retired arm?)")
            elif path not in base:
                print(f"{name}: {path} only in fresh run (new arm)")
            else:
                ratio = fresh[path] / base[path] if base[path] else float("inf")
                verdict = "ok" if ratio >= TOLERANCE else "REGRESSED"
                print(
                    f"{name}: {path} baseline {base[path]:.3f} "
                    f"fresh {fresh[path]:.3f} ratio {ratio:.2f} {verdict}"
                )
                if ratio < TOLERANCE:
                    failures.append((name, path, base[path], fresh[path]))
    if failures:
        print(f"\n{len(failures)} speedup(s) below {TOLERANCE}x of baseline:")
        for name, path, b, f in failures:
            print(f"  {name}: {path} {b:.3f} -> {f:.3f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
