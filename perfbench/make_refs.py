"""Record the reference values the output check compares against.

Runs every seed-choosable input of every workload once through
`primerace.cli.main` and stores the key report values (see check.KEY_VALUES)
in refs.json.  Within a workload the first input tallies from scratch and
the rest resume that checkpoint, which gives the same values.  Run it only
at a commit whose results are trusted; at the full scale it takes a few
minutes:

    python3 perfbench/make_refs.py
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import check  # noqa: E402
import workloads  # noqa: E402


def _run(cli, argv: list[str], root: Path) -> int:
    """cli.main from the checkout root, where the workloads' relative paths point."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    finally:
        os.chdir(cwd)


def record(xs: dict[int, str], work: Path, root: Path = ROOT) -> dict[str, dict[str, float]]:
    """Reference values for every input of every workload at scale xs."""
    sys.path.insert(0, str(root / "src"))
    from primerace import cli

    refs: dict[str, dict[str, float]] = {}
    for name in workloads.NAMES:
        out = work / name
        out.mkdir(parents=True)
        for spec in workloads.variants(name, xs):
            for op in spec.setup + spec.ops:
                argv = list(op) + ["--out", str(out)]
                tallied = any(out.glob("checkpoints_*.meta.json"))
                if op in spec.setup and tallied:
                    continue
                if tallied and "--resume" not in argv:
                    argv.append("--resume")
                rc = _run(cli, argv, root)
                if op in spec.setup:
                    if rc != 0:
                        raise RuntimeError(f"set-up failed ({rc}): {' '.join(argv)}")
                    continue
                problems = check.check_op(op[0], out, cli._PLANNED[op[0]], rc, None)
                if problems:
                    raise RuntimeError("; ".join(problems))
                refs[check.ref_key(list(op))] = check.key_values(op[0], out)
        shutil.rmtree(out)
    return refs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "refs.json"))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        refs = record(workloads.FULL_X, Path(tmp))
    Path(args.out).write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{len(refs)} references -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
