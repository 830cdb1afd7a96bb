#!/usr/bin/env python3
"""Steadiness check: run two interleaved sets of the same build and
report how much every end-to-end metric moves.

Run from the repository root:

    python3 perfbench/steady.py [--seeds 10]

Each set runs every workload of BENCHMARK.json once per seed, for its
`run_seconds`; seed i of both sets is the same seed, and the sets take
turns going first. For each (workload, metric) it prints, per set, the
median and quartiles of the per-run values
(`statistics.quantiles(values, n=4)`) and their spread, the
inter-quartile distance as a share of the median; then the drift of the
second set's median from the first's, signed so that positive is worse.
Both are judged against the metric's bound in BENCHMARK.json: a spread
below a third of the bound is "steady". The exit code is 1 if any run
failed, any spread but `setup_s`'s exceeds its bound, or any drift
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2
FIRST_SEED = 101


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # values[set][workload][metric] -> list over seeds
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(SETS)]
    failures = 0
    for i in range(opts.seeds):
        seed = FIRST_SEED + i
        for s in (0, 1) if i % 2 == 0 else (1, 0):
            for w in workloads:
                got = run_once(bench["command"], w, seed, bench["run_seconds"])
                if got is None:
                    failures += 1
                    print(f"set {s} seed {seed} {w}: FAILED", file=sys.stderr)
                    continue
                for m in metrics:
                    values[s][w][m["name"]].append(got[m["name"]])
                print(f"set {s} seed {seed} {w}: " + ", ".join(
                    f"{m['name']}={got[m['name']]:.6g}" for m in metrics),
                    file=sys.stderr, flush=True)

    bad = failures > 0
    print(f"{'workload':18} {'metric':13} {'set':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(SETS):
                q1, med, q3 = quartiles(values[s][w][name])
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                if spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "NOISY"
                    bad = bad or name != "setup_s"
                print(f"{w:18} {name:13} {s:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.2%} {bound:6.2f}  {verdict}")
            if medians[0]:
                sign = 1.0 if m["better"] == "lower" else -1.0
                drift = sign * (medians[1] - medians[0]) / medians[0]
                ok = drift <= bound
                bad = bad or not ok
                print(f"{w:18} {name:13} drift {drift:+.2%} against bound "
                      f"{bound:.2f}: {'ok' if ok else 'TOO LARGE'}")
    print(f"failed runs: {failures}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
