"""The processes a benchmark run starts: set-up probes and measured passes.

    python3 perfbench/child.py setup JOB.json
    python3 perfbench/child.py pass JOB.json

The runner (run.py) writes JOB.json, starts this script from the checkout
root with the checkout's `src` on PYTHONPATH, and reads the result file the
job names.  `setup` imports primerace and runs the workload's prerequisite
subcommands.  `pass` runs the workload's measured subcommands once through
`primerace.cli.main`, like one CLI session: every pass is a fresh process,
so it starts with cold caches and a cold heap, as a user's run does.  Only
the `main` calls are timed; deleting old reports and checking outputs
happen between them.  With tracing on, the call sites are wrapped (see
spans.py) for the duration of each call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import check
import spans as spanlib


def _peak_rss_kb() -> int:
    """High-water RSS of this process image.

    Not ru_maxrss: Linux carries that across exec, so it would include the
    runner's RSS at the moment it started this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _segments_per_pass(op: list[str]) -> int:
    """Segments that tile [2, x_hi) once for this subcommand's x_max."""
    from primerace import DEFAULT_SEGMENT_ODDS, CheckpointGrid, segment_bounds

    grid = CheckpointGrid.from_xmax(float(op[op.index("--xmax") + 1]))
    x_hi = int(math.floor(grid.x_max)) + 1
    return sum(1 for _ in segment_bounds(2, x_hi, DEFAULT_SEGMENT_ODDS))


def _file_metrics(out: Path, planned: list[str]) -> dict:
    ckpt_bytes = ckpt_rows = 0
    for path in out.glob("checkpoints_*"):
        ckpt_bytes += path.stat().st_size
        if path.suffix == ".csv":
            with open(path, "rb") as fh:
                ckpt_rows += sum(1 for _ in fh) - 1
    reports = sum((out / name).stat().st_size for name in planned if (out / name).is_file())
    return {"tally.ckpt_bytes": ckpt_bytes, "tally.ckpt_rows": ckpt_rows,
            "cli.report_bytes": reports}


def _fn(span: spanlib.Span) -> str:
    return span.name.rsplit(".", 1)[1]


def layer_metrics(pass_spans: list[spanlib.Span], tiles: int) -> dict:
    """Per-layer metrics of one traced pass."""
    selfs = spanlib.self_times(pass_spans)
    by_layer: dict[str, float] = defaultdict(float)
    for s in pass_spans:
        by_layer[s.layer] += selfs[s.id]

    def busy(*names: str) -> float:
        return sum(s.end - s.start for s in pass_spans if _fn(s) in names)

    segments = [s for s in pass_spans if _fn(s) == "sieve_segment"]
    sieve_busy = busy("sieve_segment", "simple_sieve", "prime_powers")
    primes = sum(s.size or 0 for s in segments)
    return {
        "sieve.busy_s": sieve_busy,
        "sieve.self_s": by_layer["sieve"],
        "sieve.segments": len(segments),
        "sieve.passes": len(segments) / tiles,
        "sieve.mprimes_per_s": primes / sieve_busy / 1e6 if sieve_busy else 0.0,
        "tally.self_s": by_layer["tally"],
        "tally.read_s": by_layer["tally.read"],
        "tally.read_calls": sum(1 for s in pass_spans if _fn(s) == "read_series_csv"),
        "characters.self_s": by_layer["characters"],
        "ingest.self_s": by_layer["ingest"],
        "ingest.zeros": sum(s.size or 0 for s in pass_spans if _fn(s) == "symmetric_expand"),
        "analysis.self_s": by_layer["analysis"],
        "analysis.density_race_s": busy("density_race"),
        "analysis.race_jump_weights_s": busy("race_jump_weights"),
        "analysis.estimate_C_s": busy("estimate_C", "estimate_C_all"),
        "analysis.mean_s": busy("mean_values", "mean_integral"),
        "analysis.delta_zero_sum_s": busy("delta_zero_sum"),
        "cli.self_s": by_layer["cli"],
    }


def run_pass(job: dict) -> dict:
    """Run the workload's subcommands once, timing only the main() calls."""
    from primerace import cli

    out = Path(job["out"])
    if job["fresh"]:
        out.mkdir(parents=True)
    recorder = spanlib.Recorder()
    problems = []
    failed = 0
    wall = cpu = 0.0
    files: dict[str, int] = defaultdict(int)
    for op in job["ops"]:
        planned = cli._PLANNED[op[0]]
        for name in planned:
            (out / name).unlink(missing_ok=True)
        argv = list(op) + ["--out", str(out)]
        with recorder.installed() if job["trace"] else contextlib.nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            if job["trace"]:
                rc = _quiet(recorder.root, cli.main, "primerace.cli.main", "cli", argv)
            else:
                rc = _quiet(cli.main, argv)
            t1, c1 = time.perf_counter(), time.process_time()
        peak_kb = _peak_rss_kb()
        wall += t1 - t0
        cpu += c1 - c0
        bad = check.check_op(op[0], out, planned, rc, job["refs"][check.ref_key(op)])
        failed += bool(bad)
        problems += bad
        for key, value in _file_metrics(out, planned).items():
            files[key] = value if key.startswith("tally.") else files[key] + value
    result = {"wall_s": wall, "cpu_s": cpu, "traced": bool(job["trace"]),
              "peak_rss_kb": peak_kb,
              "failed": failed, "problems": problems, "files": dict(files)}
    if job["trace"]:
        result["layers"] = layer_metrics(recorder.spans, _segments_per_pass(job["ops"][0]))
        Path(job["spans"]).write_text(json.dumps(
            [vars(s) for s in recorder.spans], separators=(",", ":")))
    return result


def main() -> int:
    mode, job_path = sys.argv[1], Path(sys.argv[2])
    job = json.loads(job_path.read_text())
    if mode == "setup":
        from primerace import cli

        for op in job["setup"]:
            rc = _quiet(cli.main, list(op) + ["--out", job["out"]])
            if rc != 0:
                print(f"set-up subcommand failed with exit code {rc}: {' '.join(op)}",
                      file=sys.stderr)
                return 1
        return 0
    Path(job["result"]).write_text(json.dumps(run_pass(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
