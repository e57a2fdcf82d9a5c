"""Self-test of the benchmark at small x_max (about a minute).

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import make_refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_refs(tmp_path_factory):
    return make_refs.record(workloads.SMOKE_X, tmp_path_factory.mktemp("refs"))


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(name, trace, smoke_refs):
    res = run.run(name, 5, 0.0, bool(trace), xs=workloads.SMOKE_X, refs=smoke_refs,
                  setup_repeats=1)
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res["problems"]
    if trace:
        # the self times of a traced pass partition its wall time exactly
        m = res["metrics"]
        parts = sum(m[k]["value"] for k in ("sieve.self_s", "tally.self_s", "tally.read_s",
                                            "characters.self_s", "ingest.self_s",
                                            "analysis.self_s", "cli.self_s"))
        traced_wall = (1 + m["trace.overhead_frac"]["value"]) * res["untraced_wall_s"]
        assert parts == pytest.approx(traced_wall, rel=1e-2)  # up to the timing wrapper
        assert res["metrics"]["sieve.passes"]["value"] == (2.0 if name == "suite-q4-resume" else 1.0)
        assert res["metrics"]["tally.read_calls"]["value"] == (4 if name == "suite-q4-resume" else 0)
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_wrong_reference_counts_a_failure(smoke_refs):
    spec = workloads.build("race-q4-fresh", 5, workloads.SMOKE_X)
    key = check.ref_key(list(spec.ops[0]))
    bad = json.loads(json.dumps(smoke_refs))
    name = next(k for k in bad[key] if k.endswith("spread"))
    bad[key][name] += 1e-6
    res = run.run("race-q4-fresh", 5, 0.0, False, xs=workloads.SMOKE_X, refs=bad,
                  setup_repeats=1)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] == 1
    assert any("spread" in p for p in res["problems"])


@pytest.fixture(scope="module")
def bias_output(tmp_path_factory):
    """One smoke bias run's output directory and its reference values."""
    sys.path.insert(0, str(ROOT / "src"))
    from primerace import cli

    out = tmp_path_factory.mktemp("bias")
    op = list(workloads.build("race-q4-fresh", 5, workloads.SMOKE_X).ops[0])
    assert make_refs._run(cli, op + ["--out", str(out)], ROOT) == 0
    return out, cli._PLANNED["bias"], check.key_values("bias", out)


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_checker_accepts_untouched_copy(bias_output, tmp_path):
    out, planned, ref = bias_output
    copy = _copy(out, tmp_path / "copy")
    assert check.check_op("bias", copy, planned, 0, ref) == []
    (ckpt,) = copy.glob("checkpoints_*.csv")
    assert check.check_checkpoint(ckpt, 4) == []


def test_checker_flags_corrupted_report_value(bias_output, tmp_path):
    out, planned, ref = bias_output
    copy = _copy(out, tmp_path / "copy")
    path = copy / "bias_fit.json"
    doc = json.loads(path.read_text())
    doc["fits"]["pointwise-tail"]["C_hat"] *= 1 + 1e-8
    path.write_text(json.dumps(doc))
    problems = check.check_op("bias", copy, planned, 0, ref)
    assert len(problems) == 1 and "pointwise-tail.C_hat" in problems[0]


def test_checker_flags_missing_or_unparsable_report(bias_output, tmp_path):
    out, planned, ref = bias_output
    copy = _copy(out, tmp_path / "copy")
    (copy / "bias_race.json").unlink()
    text = (copy / "bias_series.csv").read_text().splitlines()
    text[3] = text[3].replace(",", ",x", 1)
    (copy / "bias_series.csv").write_text("\n".join(text) + "\n")
    problems = check.check_op("bias", copy, planned, 0, ref)
    assert any("bias_race.json missing" in p for p in problems)
    assert any("bias_series.csv does not parse" in p for p in problems)
    assert check.check_op("bias", out, planned, 1, ref) == ["bias: exit code 1"]


def test_checker_flags_wrong_prime_count(bias_output, tmp_path):
    out, _planned, _ref = bias_output
    copy = _copy(out, tmp_path / "copy")
    (ckpt,) = copy.glob("checkpoints_*.csv")
    lines = ckpt.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[-1].split(",")
    col = header.index("n_3")
    cells[col] = str(int(cells[col]) + 1)
    lines[-1] = ",".join(cells)
    ckpt.write_text("\n".join(lines) + "\n")
    problems = check.check_checkpoint(ckpt, 4)
    assert len(problems) == 1 and "n_3" in problems[0]


def test_independent_sieve():
    primes = check.primes_upto(100)
    assert primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                               53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    assert len(check.primes_upto(10**6)) == 78498


def _span(i, start, end, parent, layer="x"):
    return spans.Span(i, f"m.f{i}", layer, start, end, parent, 0, None)


def test_self_time_counts_overlapping_children_once():
    # root [0,10] -> tally [1,9] -> two overlapping pool sieve spans [2,6], [4,8]
    tree = [_span(0, 0, 10, None, "cli"), _span(1, 1, 9, 0, "tally"),
            _span(2, 2, 6, 1, "sieve"), _span(3, 4, 8, 1, "sieve")]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(2.0)  # [0,1] and [9,10]
    assert selfs[1] == pytest.approx(2.0)  # [1,2] and [8,9]
    assert selfs[2] + selfs[3] == pytest.approx(6.0)  # union [2,8]
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_recorder_parents_pool_spans_under_main_span():
    import threading

    rec = spans.Recorder()
    leaf = rec.wrap(lambda: [1, 2, 3], "m.leaf", "sieve")

    def outer():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return "done"

    assert rec.root(outer, "m.outer", "tally") == "done"
    by_name = {s.name: s for s in rec.spans}
    assert by_name["m.leaf"].parent == by_name["m.outer"].id
    assert by_name["m.leaf"].thread != by_name["m.outer"].thread
    assert by_name["m.leaf"].size == 3


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "race-q4-fresh", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
