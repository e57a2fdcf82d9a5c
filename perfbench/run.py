"""primerace benchmark runner: one workload run, or all of them.

    python3 perfbench/run.py --workload race-q4-fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run builds the workload's inputs from --seed and times a few set-up
probes, each its own process (interpreter start, import, and the workload's
prerequisite subcommands).  It then repeats passes until --seconds are
spent: a pass is one fresh child process that runs the measured
subcommands once and checks every output.  At the end the final
checkpoint's per-class prime counts are compared with an independent sieve.
The load is closed-loop: one client, one subcommand at a time.

Every metric is printed by name and unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  `--workload all` runs every workload untraced
and traced and prints everything.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import check  # noqa: E402
import workloads  # noqa: E402

RUN_BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "sieve.busy_s": "s", "sieve.self_s": "s", "sieve.segments": "count",
    "sieve.passes": "ratio", "sieve.mprimes_per_s": "Mprimes/s",
    "tally.self_s": "s", "tally.read_s": "s", "tally.read_calls": "count",
    "tally.ckpt_bytes": "bytes", "tally.ckpt_rows": "count",
    "characters.self_s": "s", "ingest.self_s": "s", "ingest.zeros": "count",
    "analysis.self_s": "s", "analysis.density_race_s": "s",
    "analysis.race_jump_weights_s": "s", "analysis.estimate_C_s": "s",
    "analysis.mean_s": "s", "analysis.delta_zero_sum_s": "s",
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}
# the self times of a traced pass sum exactly to its wall time, so they are
# within 5% of the untraced wall_s when |trace.overhead_frac| <= 5%
RECONCILE_LIMIT = 0.05


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not an output-check failure)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PRL_THREADS", None)  # every subcommand passes --threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the workloads' own --threads is the only parallelism
    return env


def _child(mode: str, job: dict, job_path: Path, deadline: float) -> None:
    job_path.write_text(json.dumps(job))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the child started")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, str(job_path)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL)
    # a blocking wait with a watchdog: Popen.wait(timeout=...) polls in
    # steps of up to 50 ms, which would quantise setup_s
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    if returncode != 0:
        raise BenchError(f"{mode} child exited with code {returncode}"
                         + (" (killed: ran past the run budget)" if returncode < 0 else ""))


def _median(values):
    return statistics.median(values) if values else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, *,
        xs: dict = workloads.FULL_X, refs: dict | None = None,
        setup_repeats: int | None = None) -> dict:
    """One benchmark run; returns the result object plus a few details."""
    if not (ROOT / "src" / "primerace" / "cli.py").is_file():
        raise BenchError(f"no primerace source under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_BUDGET_S
    spec = workloads.build(name, seed, xs)
    if refs is None:
        refs = json.loads((HERE / "refs.json").read_text())
    try:
        op_refs = {check.ref_key(list(op)): refs[check.ref_key(list(op))] for op in spec.ops}
    except KeyError as exc:
        raise BenchError(f"no reference values for {exc}") from None

    work = ROOT / ".perfbench-work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = []
        for k in range(setup_repeats or spec.setup_repeats):
            setup_dir = work / f"setup{k}"
            if k:
                shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
            t0 = time.perf_counter()
            _child("setup", {"setup": spec.setup, "out": str(setup_dir)},
                   work / "setup.json", deadline)
            setup_times.append(time.perf_counter() - t0)

        # closed loop: one pass at a time, each in a fresh process; with
        # tracing, passes run untraced and traced in the order U T T U U T T U
        # ..., so a drift in machine speed does not favour either side
        passes, problems = [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 4 in (1, 2)
            out = work / "out" if spec.fresh else setup_dir
            if spec.fresh:
                shutil.rmtree(out, ignore_errors=True)
            job = {"ops": spec.ops, "fresh": spec.fresh, "out": str(out),
                   "trace": traced, "refs": op_refs,
                   "result": str(work / "result.json"),
                   "spans": str(ROOT / ".perfbench-work" / f"{name}.spans.json")}
            _child("pass", job, work / "pass.json", deadline)
            p = json.loads((work / "result.json").read_text())
            passes.append(p)
            attempted += len(spec.ops)
            failed += p["failed"]
            problems += p["problems"]
            if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
                break

        ckpts = sorted(out.glob("checkpoints_*.csv"))
        ck_problems = (check.check_checkpoint(ckpts[0], spec.q) if len(ckpts) == 1
                       else [f"expected one checkpoint file, found {len(ckpts)}"])
        if ck_problems:
            failed = min(attempted, failed + 1)
            problems += ck_problems
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall = _median([p["wall_s"] for p in plain])
    if trace:
        values = {key: _median([p["layers"][key] for p in traced])
                  for key in traced[0]["layers"]}
        values.update({key: _median([p["files"][key] for p in traced])
                       for key in traced[0]["files"]})
        values["trace.overhead_frac"] = _median([p["wall_s"] for p in traced]) / wall - 1.0
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": wall,
            "cpu_s": _median([p["cpu_s"] for p in plain]),
            "peak_rss_mb": _median([p["peak_rss_kb"] for p in plain]) / 1024.0,
            "setup_s": _median(setup_times),
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        "problems": problems,
        "inputs": [" ".join(op) for op in spec.ops],
        "passes": (len(plain), len(traced)),
        "pass_walls": [p["wall_s"] for p in passes],
        "untraced_wall_s": wall,
    }


def report(name: str, seed: int, res: dict, file=sys.stdout) -> None:
    """Human-readable lines: every metric by name and unit."""
    plain, traced = res["passes"]
    print(f"{name} seed={seed} passes={plain} untraced, {traced} traced", file=file)
    for line in res["inputs"]:
        print(f"  $ primerace {line}", file=file)
    print("  pass wall times: " + " ".join(f"{w:.4f}" for w in res["pass_walls"]), file=file)
    for key, metric in res["metrics"].items():
        print(f"  {key:<30} {metric['value']:>14.6g} {metric['unit']}", file=file)
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':<30} {rate:>14.6g} failed/attempted "
          f"({res['failed']}/{res['attempted']})", file=file)
    if "trace.overhead_frac" in res["metrics"]:
        frac = res["metrics"]["trace.overhead_frac"]["value"]
        verdict = "ok" if abs(frac) <= RECONCILE_LIMIT else "OUTSIDE"
        print(f"  reconciliation: |trace.overhead_frac| = {abs(frac):.4f} "
              f"(limit {RECONCILE_LIMIT}): {verdict}", file=file)
    for problem in res["problems"]:
        print(f"  problem: {problem}", file=file)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="primerace benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run (default 30, BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            res = run(args.workload, args.seed, args.seconds, bool(args.trace))
            report(args.workload, args.seed, res)
            print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in workloads.NAMES:
            for trace in (False, True):
                res = run(name, args.seed, args.seconds, trace)
                report(name, args.seed, res)
                total["correct"] &= res["correct"]
                total["attempted"] += res["attempted"]
                total["failed"] += res["failed"]
                total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
        print(json.dumps(total))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
