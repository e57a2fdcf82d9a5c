"""The benchmark's workloads.

BENCHMARK.json lists all of NAMES but race-q24-t2, whose wall time on a
2-core machine depends on whether the second core is free (see README.md).

A workload is a fixed list of primerace subcommands.  The seed picks only
among inputs that need the same work, so q, x_max, the thread count and the
race itself never depend on it:

- race classes are written as a seed-chosen representative of a fixed
  residue class (q=4: a = 3 + 4i, b = 1 + 4j; q=24: a = 5 + 24i,
  b = 1 + 24j; i, j in 0..3).  The orientation of a race is not a free
  choice: swapping a and b changes which class leads, and with it the
  memory and time of the race analyses (measured: 673 MB for q=4 with
  a=3, b=1 against 587 MB with a=1, b=3);
- the character for euler is 105.k, k = 1..47: the tally computes every
  character whatever the label.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

ZEROS = "data/zeros_q4_T200.txt"

# x_max per modulus: the benchmark's scale, and a small one for the self-test.
# The euler pass costs one reduction per (checkpoint row, class, character),
# so its time follows the row count more than x_max: about 3 s at 5e4 and
# 16 s at 1e7, where a run would hold only one or two passes.
FULL_X = {4: "1e8", 24: "1e8", 105: "5e4"}
SMOKE_X = {4: "3e4", 24: "3e4", 105: "2e4"}

Q4_RACE = (3, 1)
Q24_RACE = (5, 1)
LIFTS = range(4)  # representative a + q*i, b + q*j
Q105_CHARACTERS = 47  # nonprincipal characters 105.1 .. 105.47


def _representatives(q: int, race: tuple[int, int]) -> list[tuple[int, int]]:
    a, b = race
    return [(a + q * i, b + q * j) for i in LIFTS for j in LIFTS]


@dataclass(frozen=True)
class Spec:
    """One workload instance: what runs, and where its output lives."""

    q: int
    setup: tuple[tuple[str, ...], ...]  # prerequisite subcommands (set-up, own process)
    ops: tuple[tuple[str, ...], ...]  # measured subcommands; --out is appended
    fresh: bool  # True: every pass writes into an empty directory
    setup_repeats: int  # set-up probes per run; setup_s is their median


def _race(q: int, a: int, b: int, x: str, threads: int) -> tuple[str, ...]:
    return ("bias", "--q", str(q), "--a", str(a), "--b", str(b),
            "--xmax", x, "--threads", str(threads))


def variants(name: str, xs: dict[int, str] = FULL_X) -> list[Spec]:
    """Every input the seed can pick for this workload, in a fixed order."""
    if name == "race-q4-fresh":
        return [Spec(4, (), (_race(4, a, b, xs[4], 1),), True, 10)
                for a, b in _representatives(4, Q4_RACE)]
    if name == "suite-q4-resume":
        out = []
        for a, b in _representatives(4, Q4_RACE):
            race = ("--q", "4", "--a", str(a), "--b", str(b), "--xmax", xs[4],
                    "--threads", "1", "--resume")
            ops = (("bias",) + race,
                   ("delta",) + race + ("--zeros", ZEROS, "--T", "25,50,100,200"),
                   ("moments",) + race + ("--k", "1,2,3"),
                   ("mean",) + race)
            out.append(Spec(4, (_race(4, a, b, xs[4], 1),), ops, False, 3))
        return out
    if name == "euler-q105":
        # --a 2 --b 1: RunConfig.validate checks the race classes for every
        # subcommand and rejects the default a=3, which is not a unit mod 105
        return [Spec(105, (),
                     (("euler", "--q", "105", "--a", "2", "--b", "1",
                       "--chi", f"105.{k}", "--xmax", xs[105], "--threads", "1"),),
                     True, 10)
                for k in range(1, Q105_CHARACTERS + 1)]
    if name == "race-q24-t2":
        return [Spec(24, (), (_race(24, a, b, xs[24], 2),), True, 10)
                for a, b in _representatives(24, Q24_RACE)]
    raise KeyError(name)


NAMES = ("race-q4-fresh", "suite-q4-resume", "euler-q105", "race-q24-t2")


def build(name: str, seed: int, xs: dict[int, str] = FULL_X) -> Spec:
    """The workload instance for one seed."""
    options = variants(name, xs)
    return options[random.Random(seed).randrange(len(options))]
