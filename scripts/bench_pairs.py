#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as BENCH_<tag>_pairs.json.

For each workload and each seed, runs

    perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the run_seconds of BENCHMARK.json, once on the parent and once on
this checkout, back to back: the parent first on odd seeds, the change
first on even ones, so that a slow spell of the host falls on both sides
alike.  The parent is a clean tree of a git revision, exported with `git
archive` into a temporary directory and removed at the end; the change is
the checkout's working tree as it stands.  Only pairs from one session
support a speed claim: the host's load sets the level of a run.

Run from the repository root:

    python3 scripts/bench_pairs.py --rev REV --tag TAG [--seeds 1-10]
        [--workloads race-q4-fresh,euler-q105] [--how TEXT]

The output holds one set of pairs per --seeds value ("seeds 1-10"): per
workload, the seeds, the failed and attempted operations of each side, and
per end-to-end metric each side's values (one per seed), their median and
quartiles (statistics.quantiles), in how many pairs the change's value is
the lower (ties count for neither), the change of the median in percent,
and "gain": whether the change may claim a gain on that metric, every
end-to-end metric of BENCHMARK.json being better lower.  It may when it is
lower in at least nine tenths of the pairs and its median is below the
parent's by more than the parent's q3 - q1.  Beside it, "within_bound" is
the no-regression verdict against the metric's relative bound in
BENCHMARK.json, as perfbench/sweep.py --compare reads it: false when the
change's median is above the parent's by more than bound times the
parent's median, and "unresolved" when the parent's q3 - q1 is above bound
times its median, so that its runs spread too widely to tell, unless every
change value is below every parent value.  When
BENCH_<tag>_pairs.json exists, the new set is added to it (a set of the
same seeds is replaced), provided it was made against the same revision
and run length.  --how is recorded with the set's label.  A line per
workload and metric goes to stderr at the end.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    """"1-10" or "1,3,5" as a list of seeds; ValueError for a reversed range or fewer than two seeds.

    The quartiles of each side need at least two values.
    """
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        if hi < lo:
            raise ValueError(f"seed range {text} is reversed")
        out = list(range(lo, hi + 1))
    else:
        out = [int(s) for s in text.split(",")]
    if len(out) < 2:
        raise ValueError(f"seeds {text} name one seed; the quartiles need at least two")
    return out


def merged(out: Path, how: str) -> dict:
    """The pairs already in out, or a new file's skeleton; how opens its description."""
    if not out.exists():
        return {"how": how, "sets": {}}
    result = json.loads(out.read_text())
    if not result["how"].startswith(how):
        raise SystemExit(f"{out} holds pairs of another parent or run length; use another --tag")
    return result


def export(rev: str, into: Path) -> None:
    """A clean tree of rev in into, from `git archive`."""
    blob = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its last stdout line, the JSON summary."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def side(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def within_bound(p: dict, c: dict, bound: float) -> bool | str:
    """The no-regression verdict of change side c against parent side p, bound relative to p's median."""
    if p["q3"] - p["q1"] > bound * p["median"] and max(c["values"]) >= min(p["values"]):
        return "unresolved"
    return c["median"] - p["median"] <= bound * p["median"]


def compare(parent: list[float], change: list[float], bound: float) -> dict:
    """Both sides of one metric, paired by seed, and the change's verdicts against the parent."""
    p, c = side(parent), side(change)
    lower = sum(b < a for a, b in zip(parent, change))
    return {"parent": p, "change": c, "change_lower_in": lower,
            "median_change_pct": 100 * (c["median"] / p["median"] - 1) if p["median"] else None,
            "gain": 10 * lower >= 9 * len(parent) and p["median"] - c["median"] > p["q3"] - p["q1"],
            "within_bound": within_bound(p, c, bound)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating parent/change perfbench pairs")
    parser.add_argument("--rev", required=True, help="the parent revision")
    parser.add_argument("--tag", required=True, help="names the output, BENCH_<tag>_pairs.json")
    parser.add_argument("--seeds", default="1-10", help='"1-10" or "1,3,5"')
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: BENCHMARK.json's workloads")
    parser.add_argument("--how", default="", help="appended to the output's description")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    try:
        label, seed_list = f"seeds {args.seeds}", seeds(args.seeds)
    except ValueError as exc:  # before any export or run
        parser.error(str(exc))
    out = ROOT / f"BENCH_{args.tag}_pairs.json"
    result = merged(out, f"alternating perfbench/run.py --seconds {seconds:g} --trace 0 runs, parent first on "
                         f"odd seeds; parent = {args.rev} (git archive), change = the working tree")
    if args.how:
        result["how"] += f"; {label}: {args.how}"
    result["sets"][label] = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = Path(tmp)
        export(args.rev, parent)
        for name in names:
            runs = {"parent": [], "change": []}
            for seed in seed_list:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for who in order:
                    runs[who].append(run(parent if who == "parent" else ROOT, name, seed, seconds))
                    print(f"{name} seed {seed} {who}: "
                          f"wall_s {runs[who][-1]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
            metrics = {}
            for key in runs["parent"][0]["metrics"]:
                vals = {who: [r["metrics"][key]["value"] for r in runs[who]] for who in runs}
                metrics[key] = compare(vals["parent"], vals["change"], bounds[key])
            result["sets"][label][name] = {
                "seeds": seed_list,
                "failed": {who: sum(r["failed"] for r in runs[who]) for who in runs},
                "attempted": {who: sum(r["attempted"] for r in runs[who]) for who in runs},
                "metrics": metrics,
            }
    out.write_text(json.dumps(result, indent=1) + "\n")
    for name, res in result["sets"][label].items():
        for key, m in res["metrics"].items():
            pct = "n/a" if m["median_change_pct"] is None else f"{m['median_change_pct']:+.1f}%"
            print(f"{name} {key}: median {m['parent']['median']:.6g} -> {m['change']['median']:.6g} ({pct}), "
                  f"lower in {m['change_lower_in']} of {len(res['seeds'])}, parent q3-q1 "
                  f"{m['parent']['q3'] - m['parent']['q1']:.3g}, gain {m['gain']}, "
                  f"within bound {m['within_bound']}", file=sys.stderr)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
