"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/sweep.py --workloads all --seeds 1-10 --trace 0 --out perfbench/results/x.json
    python3 perfbench/sweep.py --show perfbench/results/seed-e2e.json
    python3 perfbench/sweep.py --compare perfbench/results/a.json perfbench/results/b.json

Each run is `python3 perfbench/run.py ...` in its own process, from the
checkout root, with BENCHMARK.json's run_seconds unless --seconds is given.  For every metric the
summary gives the median and the quartiles of statistics.quantiles(n=4),
and the spread (q3 - q1) / median; printing it (or --show) also says, for
an end-to-end metric, whether that spread is below a third of its bound.  --compare
prints, per workload and end-to-end metric, how much the second file's
median is worse than the first's, as a share of the first, next to the
bound.  On a traced sweep the summary also gives the reconciliation check:
the per-layer self times sum to within 5% of the untraced wall_s when the
median |trace.overhead_frac| is at most 5%.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def sweep(names: list[str], seeds: list[int], trace: int, seconds: float) -> dict:
    bench = _bench()
    e2e = {m["name"] for m in bench["end_to_end"]}
    out: dict = {"run_seconds": seconds, "trace": trace, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds),
                                      "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed={seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()
                if k in e2e or trace), flush=True)
        metrics = {}
        for key, first in runs[0]["metrics"].items():
            metrics[key] = summarise([r["metrics"][key]["value"] for r in runs])
            metrics[key]["unit"] = first["unit"]
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    return out


def show(result: dict) -> None:
    """Print a summary; end-to-end spreads are judged against a third of the bound."""
    bounds = {m["name"]: m["bound"] for m in _bench()["end_to_end"]}
    for name, wl in result["workloads"].items():
        print(f"{name}: correct={wl['correct']} failed={wl['failed']}/{wl['attempted']}")
        for key, m in wl["metrics"].items():
            tail = ""
            if key in bounds:
                steady = m["spread"] < bounds[key] / 3
                tail = f"  bound {bounds[key]}  {'steady' if steady else 'NOT STEADY'}"
            print(f"  {key:<30} median {m['median']:<12.6g} {m['unit']:<10} "
                  f"q1 {m['q1']:<10.5g} q3 {m['q3']:<10.5g} spread {m['spread']:.4f}{tail}")
        if "trace.overhead_frac" in wl["metrics"]:
            frac = wl["metrics"]["trace.overhead_frac"]["median"]
            inside = abs(frac) <= run.RECONCILE_LIMIT
            print(f"  reconciliation: median |trace.overhead_frac| = {abs(frac):.4f} "
                  f"(limit {run.RECONCILE_LIMIT}): {'ok' if inside else 'OUTSIDE'}")


def compare(base_path: str, new_path: str) -> bool:
    """True when no end-to-end median got worse by more than its bound."""
    bench = _bench()
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    ok = True
    for name in base:
        for m in bench["end_to_end"]:
            b, n = base[name]["metrics"][m["name"]], new[name]["metrics"][m["name"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (n["median"] - b["median"]) / b["median"]
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= worse <= m["bound"]
            print(f"{name:<16} {m['name']:<12} {b['median']:<10.5g} -> {n['median']:<10.5g} "
                  f"worse by {worse:+.4f} (bound {m['bound']}) {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description="repeat benchmark runs over seeds")
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names; all: those in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--show", metavar="FILE", help="print a stored summary")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.show:
        show(json.loads(Path(args.show).read_text()))
        return 0
    if args.compare:
        return 0 if compare(*args.compare) else 1
    names = ([w["name"] for w in _bench()["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    result = sweep(names, _seeds(args.seeds), args.trace,
                   args.seconds or _bench()["run_seconds"])
    show(result)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
