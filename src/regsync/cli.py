"""Command-line driver.

Exit codes: 0 decided/produced, 1 negative decision, 2 inconclusive or
budget exhausted, 3 usage or parse error.  Reports print as text or, with
--format json, as {command, outcome, witness?, stats{explored, queued,
pruned, depth, seconds}}, where queued counts the sets (for emptiness, the
states) a search added to its dedup table and pruned the sets it dropped by
subsumption.  A bounded sync or universality search stores the root, the
sets found above its last layer and a witness found on it, but not the
last layer's other sets.  An inconclusive sync-dra adds stats.phase, the
search that ran out ("shrink" or "merge").  Text reports print an empty
witness word as EMPTY_WORD; JSON keeps it as "".  Without --max-nodes a
search runs under semantics.DEFAULT_MAX_NODES.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from . import dra, gadgets, nra, oracle, semantics
from .dsl import DslError, SourceDocument, parse_automaton, serialize_automaton
from .ra import RegisterAutomaton, ResourceCapError
from .semantics import abstract_run, choice_of_word, is_synchronized, word_data

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
# An empty witness word in text reports, which a blank line would hide.
EMPTY_WORD = "ε"


@dataclass
class Report:
    command: str
    outcome: str
    exit_code: int
    witness: Optional[str] = None
    lines: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    quiet: bool = False  # the command's product already went to stdout

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = {"command": self.command, "outcome": self.outcome}
            if self.witness is not None:
                payload["witness"] = self.witness
            if self.lines:
                payload["detail"] = self.lines
            payload["stats"] = self.stats
            return json.dumps(payload, indent=2)
        out = []
        if self.witness is not None:
            out.append(self.witness or EMPTY_WORD)
        out.extend(self.lines)
        out.append(self.outcome)
        return "\n".join(out)


def _read_document(path: str) -> SourceDocument:
    if path == "-":
        return SourceDocument(sys.stdin.read(), "<stdin>")
    with open(path, "r", encoding="utf-8") as handle:
        return SourceDocument(handle.read(), path)


def format_word(aut: RegisterAutomaton, word) -> str:
    return " ".join(f"{aut.alphabet[letter]}:{datum}" for letter, datum in word)


def parse_word(aut: RegisterAutomaton, text: str):
    word = []
    for chunk in text.split():
        if ":" not in chunk:
            raise ValueError(f"bad word entry {chunk!r} (expected letter:datum)")
        letter, _, datum = chunk.rpartition(":")
        if letter not in aut.alphabet:
            raise ValueError(f"unknown letter {letter!r}")
        if not datum.isdecimal():
            raise ValueError(f"bad datum {datum!r} (expected a natural)")
        word.append((aut.letter_index(letter), int(datum)))
    return tuple(word)


def _load(path: str) -> RegisterAutomaton:
    return parse_automaton(_read_document(path))


def _emit(report: Report, fmt: str, started: float) -> int:
    report.stats.setdefault("seconds", round(time.perf_counter() - started, 3))
    if not report.quiet:
        print(report.render(fmt))
    return report.exit_code


def _search_report(command, aut, outcome, negative_text) -> Report:
    stats = {"explored": outcome.explored, "queued": outcome.queued,
             "pruned": outcome.pruned}
    match outcome:
        case nra.Witness(word=word):
            return Report(command, "witness", EXIT_OK, format_word(aut, word),
                          stats={**stats, "depth": len(word)})
        case nra.NoneWithinBound():
            return Report(command, negative_text, EXIT_NEGATIVE, stats=stats)
        case nra.BudgetExhausted():
            return Report(command, "budget exhausted", EXIT_INCONCLUSIVE, stats=stats)
    raise RuntimeError(f"unknown outcome {outcome!r}")


def _cmd_validate(args) -> Report:
    aut = _load(args.file)
    diags = aut.compiled.diagnostics
    if not diags:
        return Report("validate", "ok", EXIT_OK)
    return Report("validate", f"{len(diags)} diagnostic(s)", EXIT_NEGATIVE,
                  lines=[f"{d.code}: {d.message}" for d in diags])


def _cmd_sync_dra(args) -> Report:
    aut = _load(args.file)
    try:
        word = dra.synchronizing_word_dra(aut, max_nodes=args.max_nodes)
    except dra.InconclusiveError as err:
        return Report("sync-dra", "INCONCLUSIVE", EXIT_INCONCLUSIVE,
                      stats={"explored": err.explored, "phase": err.phase})
    if word is None:
        return Report("sync-dra", "NO", EXIT_NEGATIVE)
    return Report("sync-dra", "witness", EXIT_OK, format_word(aut, word),
                  stats={"depth": len(word)})


def _cmd_sync_bounded(args) -> Report:
    aut = _load(args.file)
    budget = nra.SearchBudget(args.max_len, args.max_data, args.max_nodes)
    outcome = nra.bounded_sync_search(aut, budget)
    return _search_report("sync-bounded", aut, outcome, "no word within bound")


def _cmd_universality(args) -> Report:
    aut = _load(args.file)
    outcome = nra.bounded_universality_witness(aut, args.bound, max_nodes=args.max_nodes)
    return _search_report("universality", aut, outcome, "universal up to bound")


def _cmd_emptiness(args) -> Report:
    aut = _load(args.file)
    outcome = nra.nonemptiness_witness(aut, args.bound, max_nodes=args.max_nodes)
    return _search_report("emptiness", aut, outcome, "no accepted word within bound")


def _cmd_gen(args) -> Report:
    if args.family in ("chain", "counter", "tower"):
        if args.n is None:
            raise ValueError(f"gen {args.family} needs --n")
        maker = {"chain": gadgets.gen_chain_dra,
                 "counter": gadgets.gen_counter_nra,
                 "tower": gadgets.gen_tower_nra}[args.family]
        aut = maker(args.n)
    else:
        if args.input is None:
            raise ValueError(f"gen {args.family} needs --input")
        source = _load(args.input)
        maker = {"reduce-nonuniv": gadgets.reduce_nonuniv_to_sync,
                 "reduce-sync": gadgets.reduce_sync_to_nonuniv,
                 "reduce-nonempty": gadgets.reduce_nonempty_to_sync_dra}[args.family]
        aut = maker(source)
    sys.stdout.write(serialize_automaton(aut, args.output_format))
    return Report("gen", "produced", EXIT_OK, quiet=True)


def _cmd_run(args) -> Report:
    aut = _load(args.file)
    word = parse_word(aut, args.word)
    aset = abstract_run(aut, choice_of_word(word))
    order = word_data(word)
    lines = []
    # Location, then word data before `?` blocks, each ascending.
    for loc, values in sorted(aset.configs, key=lambda c: (
            c[0], tuple((v < 0, v if v >= 0 else -1 - v) for v in c[1]))):
        shown = [str(order[v]) if v >= 0 else f"?{-1 - v}" for v in values]
        lines.append(f"({aut.locations[loc]}, ({', '.join(shown)}))")
    outcome = "synchronized" if is_synchronized(aset) else f"{len(aset.configs)} successor(s)"
    return Report("run", outcome, EXIT_OK, lines=lines, stats={"depth": len(word)})


def _cmd_oracle(args) -> Report:
    aut = _load(args.file)
    pool = args.pool if args.pool is not None else args.max_len
    max_nodes = semantics.DEFAULT_MAX_NODES if args.max_nodes is None else args.max_nodes
    params = oracle.OracleParams(args.max_len, pool, max_nodes=max_nodes)
    length = oracle.oracle_min_length(aut, params)
    if length is None:
        return Report("oracle", "no word within bounds", EXIT_NEGATIVE)
    # the pool-P search just found a word: only the smaller pools are open
    efficiency = oracle.oracle_min_data_efficiency(
        aut, replace(params, data_pool_size=pool - 1)) or pool
    return Report("oracle", "witness", EXIT_OK,
                  lines=[f"min length: {length}", f"min data efficiency: {efficiency}"],
                  stats={"depth": length})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsync",
        description="Synchronizing data words for register automata")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, nodes=True):
        p.add_argument("file", help="automaton file ('-' for stdin)")
        if nodes:
            p.add_argument("--max-nodes", type=int, default=None)

    common(sub.add_parser("validate", help="structural diagnostics"), nodes=False)
    common(sub.add_parser("sync-dra", help="decide + construct a DRA synchronizing word"))
    p = sub.add_parser("sync-bounded", help="length-bounded synchronizing-word search")
    common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--max-data", type=int, default=None)
    p = sub.add_parser("universality", help="length-bounded universality counterexample")
    common(p)
    p.add_argument("--bound", type=int, required=True)
    p = sub.add_parser("emptiness", help="bounded non-emptiness witness")
    common(p)
    p.add_argument("--bound", type=int, required=True)
    p = sub.add_parser("gen", help="generate a family member or reduction")
    p.add_argument("family", choices=("chain", "counter", "tower",
                                      "reduce-nonuniv", "reduce-sync", "reduce-nonempty"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--output-format", choices=("dsl", "json"), default="dsl")
    p = sub.add_parser("run", help="successor set of L x D^k under a word")
    common(p, nodes=False)
    p.add_argument("--word", required=True, help='input word, e.g. "a:1 b:2"')
    p = sub.add_parser("oracle", help="brute-force minimal length and data efficiency")
    common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--pool", type=int, default=None)
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "sync-dra": _cmd_sync_dra,
    "sync-bounded": _cmd_sync_bounded,
    "universality": _cmd_universality,
    "emptiness": _cmd_emptiness,
    "gen": _cmd_gen,
    "run": _cmd_run,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        report = _HANDLERS[args.command](args)
    except DslError as err:
        for diag in err.diagnostics:
            print(f"{err.provenance}:{diag}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as err:
        print(f"inconclusive: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return _emit(report, args.format, started)


if __name__ == "__main__":
    sys.exit(main())
