#!/usr/bin/env python3
"""Compare the verdicts of two regsync checkouts, query by query.

    python3 scripts/compare_verdicts.py ../other-checkout --workload decide --seed 1

Every query of the benchmark workload (`perfbench/inputs.generate`) goes
through `perfbench/client.execute`, once in this checkout and once in the
other, each checkout in its own subprocess with its own `src/` and
`perfbench/`.  A verdict is compared by its decided flag, its result (the
word, or the outcome type with its witness, or the exception type with
`explored` and `phase`, or an abstract set's configurations and word data
count, whatever its class) and `dra1`.  The search statistics of an
outcome (`explored`, `queued`, `pruned`) count work, not answers, so by
default they are not compared: a change to a search's pruning moves them
by design.
`--same-stats explored,pruned` compares the listed statistics too, for a
change that claims not to move them.  Each differing query falls in one
class: newly decided (only this checkout decided it), newly undecided
(only the other did) or changed answer (both or neither did).  Prints the
number of differing verdicts, their count per class and the seconds per
query kind in each checkout, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
# Outcome fields that count work rather than state the answer.
STATISTICS = ("explored", "queued", "pruned")
CLASSES = ("newly decided", "newly undecided", "changed answer")


def _result(result, same_stats=()):
    """The compared part of a verdict's result: every outcome field except
    the statistics not named in `same_stats`."""
    if isinstance(result, BaseException):
        return (type(result).__name__, getattr(result, "explored", None),
                getattr(result, "phase", None))
    if hasattr(result, "configs") and hasattr(result, "word_data_count"):
        # an abstract set, in the form of the dataclass it once was, so that
        # checkouts on either side of that change compare by content
        return (type(result).__name__, ("configs", tuple(result.configs)),
                ("word_data_count", result.word_data_count))
    if dataclasses.is_dataclass(result):
        return (type(result).__name__,) + tuple(
            (f.name, getattr(result, f.name)) for f in dataclasses.fields(result)
            if f.name not in STATISTICS or f.name in same_stats)
    return result


def _statistics(text: str) -> tuple:
    names = tuple(name for name in text.split(",") if name)
    unknown = [name for name in names if name not in STATISTICS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown statistic {unknown[0]!r} (choose from {', '.join(STATISTICS)})")
    return names


def _class(this_decided: bool, other_decided: bool) -> str:
    """The class of a differing verdict, from whether each checkout decided it."""
    if this_decided != other_decided:
        return CLASSES[0] if this_decided else CLASSES[1]
    return CLASSES[2]


def _worker(checkout: Path, workload: str, seed: int, limit, same_stats) -> None:
    """Run the queries in `checkout` and write one JSON line per query:
    [index, kind, sha256 of its text, seconds, decided, verdict signature]."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import client
    import inputs

    queries = inputs.generate(workload, seed)[:limit]
    for i, query in enumerate(queries):
        start = time.perf_counter()
        try:
            verdict = client.execute(query)
            decided = verdict.decided
            signature = (decided, _result(verdict.result, same_stats), verdict.dra1)
        except Exception as err:  # a crash is a verdict too, and an undecided one
            decided = False
            signature = ("error", type(err).__name__, str(err))
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(query.text.encode()).hexdigest()
        print(json.dumps([i, query.kind, digest, seconds, decided, repr(signature)]),
              flush=True)


def _run(checkout: Path, args) -> list:
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout),
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.limit is not None:
        argv += ["--limit", str(args.limit)]
    if args.same_stats:
        argv += ["--same-stats", ",".join(args.same_stats)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="path of the other checkout")
    parser.add_argument("--workload", default="decide", choices=("decide", "membership"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--limit", type=int, default=None,
                        help="compare only the first N queries")
    parser.add_argument("--same-stats", type=_statistics, default=(), metavar="NAMES",
                        help="comma-separated outcome statistics to compare too "
                             f"({', '.join(STATISTICS)})")
    # Run the queries in the checkout `other` and print their verdicts.
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(Path(args.other), args.workload, args.seed, args.limit, args.same_stats)
        return 0
    other = Path(args.other).resolve()
    if not (other / "perfbench" / "client.py").is_file():
        parser.error(f"{other} has no perfbench/client.py")
    mine, theirs = _run(HERE, args), _run(other, args)
    if len(mine) != len(theirs) or any(a[2] != b[2] for a, b in zip(mine, theirs)):
        print("the two checkouts generate different queries")
        return 1
    differing = [(a, b) for a, b in zip(mine, theirs) if a[5] != b[5]]
    classes = Counter()
    for n, ((i, kind, _, _, decided, signature), other) in enumerate(differing):
        cls = _class(decided, other[4])
        classes[cls] += 1
        if n < 10:
            print(f"query {i} ({kind}, {cls}):\n  this:  {signature}\n  other: {other[5]}")
    seconds = defaultdict(lambda: [0, 0.0, 0.0])
    for a, b in zip(mine, theirs):
        cell = seconds[a[1]]
        cell[0] += 1
        cell[1] += a[3]
        cell[2] += b[3]
    print(f"{args.workload} seed {args.seed}: {len(mine)} queries, "
          f"{len(differing)} differing verdict(s)")
    print(", ".join(f"{cls}: {classes[cls]}" for cls in CLASSES))
    print(f"{'kind':<14}{'queries':>8}{'this s':>10}{'other s':>10}")
    for kind, (count, this_s, other_s) in sorted(seconds.items()):
        print(f"{kind:<14}{count:>8}{this_s:>10.2f}{other_s:>10.2f}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
