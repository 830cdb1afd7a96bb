#!/usr/bin/env python3
"""Bench regression guard.

Compares freshly generated `BENCH_*.json` files (working tree) against
the committed baseline (`git show HEAD:...`). Compare like with like: CI
passes the `BENCH_*.smoke.json` files the `--smoke` bench bins write,
whose committed copies are smoke runs too. Two kinds of key are gated:

- every numeric key containing "speedup" (a timed ratio, see below);
- every numeric leaf under a `work` object: an exact, deterministic work
  count (e.g. the runtime bench's flow-engine `recomputed_flows` and
  `rate_changes`, the fabric bench's drains and route lookups, or the
  planner bench's `delta_recomputed`). It
  fails as soon as it rises above its committed value. The count cannot
  flap, so a change that legitimately adds work must re-bless the
  committed smoke file.

CI smoke runs are short and the runners are noisy, so this is a
guard-rail, not a benchmark: a fresh speedup may wobble below the
committed number without anything being wrong. We only fail
when a speedup collapses below `TOLERANCE` (default 0.5x) of its
baseline — the regime where an accidental O(n) -> O(n^2) slip or a
de-optimised hot path shows up regardless of runner noise. A speedup
whose two sides share a component cannot see that component slow down;
the `work` counts cover it.

Every section (top-level arm) of each file is listed with how many of
its numeric keys are gated, so an arm without a speedup key still shows
up. Sections and numeric keys present only in the fresh file (new bench
arms) or only in the baseline (retired arms) are reported but never fail
the build; the gate compares the gated keys present in both. Usage:

    python3 scripts/bench_regress.py BENCH_runtime.smoke.json BENCH_fabric.smoke.json ...
"""

import json
import subprocess
import sys

TOLERANCE = 0.5


def numeric_keys(obj, prefix="", in_work=False):
    """Flatten `obj` to {dotted.path: (value, gate)} for numeric leaves.

    `gate` is "work" for a leaf under a `work` object, "speedup" when the
    dict key holding it contains "speedup", and None otherwise.
    """
    out = {}
    if isinstance(obj, dict):
        for key, val in obj.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(val, (dict, list)):
                out.update(numeric_keys(val, path, in_work or key == "work"))
            elif isinstance(val, (int, float)):
                gate = "work" if in_work else ("speedup" if "speedup" in key.lower() else None)
                out[path] = (float(val), gate)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            path = f"{prefix}[{i}]"
            if isinstance(val, (dict, list)):
                out.update(numeric_keys(val, path, in_work))
            elif isinstance(val, (int, float)):
                out[path] = (float(val), "work" if in_work else None)
    return out


def sections(obj):
    """Top-level keys holding a bench arm (a dict or a list)."""
    return {k for k, v in obj.items() if isinstance(v, (dict, list))}


def section_of(path):
    return path.split(".")[0].split("[")[0]


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
        base_doc = json.loads(committed)
        with open(name) as fh:
            fresh_doc = json.load(fh)
        base, fresh = numeric_keys(base_doc), numeric_keys(fresh_doc)
        base_secs, fresh_secs = sections(base_doc), sections(fresh_doc)
        for sec in sorted(base_secs | fresh_secs):
            src = fresh if sec in fresh_secs else base
            keys = [gate is not None for path, (_, gate) in src.items() if section_of(path) == sec]
            where = ""
            if sec not in fresh_secs:
                where = " only in baseline (retired arm?)"
            elif sec not in base_secs:
                where = " only in fresh run (new arm)"
            print(f"{name}: section {sec}: {len(keys)} numeric keys, {sum(keys)} gated{where}")
        # Keys of a one-sided section are covered by its line above.
        for path in sorted(set(base) ^ set(fresh)):
            if section_of(path) not in base_secs ^ fresh_secs:
                side = "baseline" if path in base else "fresh run"
                print(f"{name}: {path} only in {side}")
        for path in sorted(set(base) & set(fresh)):
            (b, gate), (f, _) = base[path], fresh[path]
            if gate == "work":
                verdict = "ok" if f <= b else "ROSE"
                print(f"{name}: {path} baseline {b:.0f} fresh {f:.0f} {verdict}")
                if f > b:
                    failures.append((name, path, b, f, "work count above its committed value"))
            elif gate == "speedup":
                ratio = f / b if b else float("inf")
                verdict = "ok" if ratio >= TOLERANCE else "REGRESSED"
                print(f"{name}: {path} baseline {b:.3f} fresh {f:.3f} ratio {ratio:.2f} {verdict}")
                if ratio < TOLERANCE:
                    failures.append((name, path, b, f, f"speedup below {TOLERANCE}x of baseline"))
    if failures:
        print(f"\n{len(failures)} gated key(s) regressed:")
        for name, path, b, f, why in failures:
            print(f"  {name}: {path} {b:.3f} -> {f:.3f} ({why})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
