"""Untimed correctness gate: every verdict the client returns is checked
against a procedure that does not use regsync's symbolic abstraction.

* Synchronizing words go to `oracle_is_synchronizing` (concrete enumeration
  over data(word) plus k fresh data).  Where that set is too large to
  enumerate in a run (chain(5): about 1.9 million configurations), the word
  is checked by `reduced_synchronizes` below, which enumerates initial
  valuations only up to renaming of the non-word data; the self-test checks
  chain(5)'s word with the oracle itself.
* DRA "no" verdicts agree with `dra1_decide` when k = 1, and on a bounded
  sample with a saturated `oracle_search` over the 2k+1-datum pool.
* `NoneWithinBound` sync verdicts are checked, on a bounded sample, by the
  oracle's exhaustive search over all words within the length bound.
* Membership answers are compared with the concrete simulation below,
  written against `ra.eval_constraint` alone; non-emptiness witnesses must be
  accepted and universality counterexamples rejected, by both `nra.accepts`
  and that simulation.
* `run` answers (abstract configuration sets) are compared with the
  abstraction of the concrete successor set, on words small enough to
  enumerate.
"""

from __future__ import annotations

import itertools

from regsync import nra, oracle
from regsync.dsl import parse_automaton
from regsync.ra import ResourceCapError, eval_constraint

# Largest initial configuration count |L| * |Z|^k enumerated per check.
ORACLE_CONFIG_CAP = 300_000
RUN_CONFIG_CAP = 4_000
# "No" verdicts re-derived by exhaustive oracle search: at most this many
# attempts per run, on automata whose oracle start set |L| * |pool + k|^k is
# at most NO_CHECK_CONFIGS, each within NO_CHECK_NODES oracle nodes (an
# attempt over the node cap proves nothing and is skipped).
NO_CHECKS_PER_RUN = 4
NO_CHECK_CONFIGS = 250
NO_CHECK_NODES = 5_000


class _Concrete:
    """Concrete successor steps of one automaton, via ra.eval_constraint.

    A guard's truth depends only on which registers equal the input, so it
    is evaluated once per (transition, equality pattern)."""

    def __init__(self, aut):
        self.cells = {}
        for t in aut.transitions:
            self.cells.setdefault((t.source, t.letter), []).append(t)
        self._fires = {}

    def step(self, configs, letter, datum) -> set:
        out = set()
        for loc, values in configs:
            pattern = tuple(v == datum for v in values)
            for t in self.cells.get((loc, letter), ()):
                key = (id(t), pattern)
                fires = self._fires.get(key)
                if fires is None:
                    fires = self._fires[key] = eval_constraint(t.guard, values, datum)
                if fires:
                    out.add((t.target, tuple(datum if j in t.update else v
                                             for j, v in enumerate(values))))
        return out

    def run(self, configs, word) -> set:
        for letter, datum in word:
            configs = self.step(configs, letter, datum)
        return configs


def _word_data(word) -> list:
    order = []
    for _, d in word:
        if d not in order:
            order.append(d)
    return order


def concrete_accepts(aut, word) -> bool:
    """Does some run over `word` end in an accepting location?

    The initial valuation is existential, and every transition leaving the
    initial location updates all registers, so it only matters through which
    registers equal the first datum: {first datum} plus k fresh data realize
    every such pattern.
    """
    acc = aut.acceptance
    full = frozenset(range(aut.registers))
    if any(t.source == acc.initial and t.update != full for t in aut.transitions):
        raise ValueError("initial-update rule violated; the reduced start set is unsound")
    if not word:
        return acc.initial in acc.accepting
    top = max(d for _, d in word) + 1
    pool = [word[0][1]] + [top + j for j in range(aut.registers)]
    start = {(acc.initial, v) for v in itertools.product(pool, repeat=aut.registers)}
    return any(loc in acc.accepting for loc, _ in _Concrete(aut).run(start, word))


def _initial_set(aut, word) -> set:
    """L x Z^k, Z = data(word) plus k fresh data."""
    top = max((d for _, d in word), default=-1) + 1
    pool = _word_data(word) + [top + j for j in range(aut.registers)]
    return {(loc, v) for loc in range(len(aut.locations))
            for v in itertools.product(pool, repeat=aut.registers)}


def concrete_abstraction(aut, word) -> set:
    """The concrete post(L x D^k, word), abstracted as regsync.semantics
    encodes it: the i-th distinct word datum as i, other values as symbolic
    blocks -1, -2, ... numbered by first occurrence within the valuation."""
    index = {d: i for i, d in enumerate(_word_data(word))}
    out = set()
    for loc, values in _Concrete(aut).run(_initial_set(aut, word), word):
        blocks = {}
        enc = []
        for v in values:
            if v in index:
                enc.append(index[v])
            else:
                enc.append(blocks.setdefault(v, -1 - len(blocks)))
        out.add((loc, tuple(enc)))
    return out


def reduced_synchronizes(aut, word) -> bool:
    """Synchronization of a complete automaton, enumerating initial
    valuations only up to renaming of the data outside the word.

    post commutes with bijections fixing data(word), so post(L x D^k, word)
    is a singleton iff the posts of one representative per orbit are one
    configuration over word data only.
    """
    data = _word_data(word)
    top = max(data, default=-1) + 1
    valuations = [()]
    for _ in range(aut.registers):
        grown = []
        for v in valuations:
            used = len({x for x in v if x >= top})
            grown.extend(v + (x,) for x in data + [top + j for j in range(used + 1)])
        valuations = grown
    start = {(loc, v) for loc in range(len(aut.locations)) for v in valuations}
    final = _Concrete(aut).run(start, word)
    return len(final) == 1 and all(x in data for x in next(iter(final))[1])


class Gate:
    """Collects checks and failures over one run's verdicts."""

    def __init__(self):
        self.calls = 0
        self.failures = []
        self.no_checks = 0  # oracle "no" attempts
        self._parsed = {}

    def _expect(self, query, ok, message) -> None:
        self.calls += 1
        if not ok:
            self.failures.append(f"{query.kind} {query.label}: {message}")

    def check(self, query, verdict) -> None:
        if not verdict.decided:
            return
        aut = self._parsed.get(query.text)
        if aut is None:
            aut = self._parsed[query.text] = parse_automaton(query.text)
        getattr(self, "_" + query.kind.replace("-", "_"))(query, aut, verdict)

    def _synchronizes(self, aut, word) -> bool:
        size = len(aut.locations) * (len(_word_data(word)) + aut.registers) ** aut.registers
        if size <= ORACLE_CONFIG_CAP:
            return oracle.oracle_is_synchronizing(aut, word)
        return reduced_synchronizes(aut, word)

    def _oracle_finds_none(self, query, aut, params, need_saturation: bool) -> None:
        """Exhaustive oracle search must find no synchronizing word.  With
        `need_saturation` (an unbounded "no"), a search that stopped at its
        depth bound proves nothing and is not counted."""
        k = aut.registers
        size = len(aut.locations) * (params.data_pool_size + k) ** k
        if self.no_checks >= NO_CHECKS_PER_RUN or size > NO_CHECK_CONFIGS:
            return
        self.no_checks += 1
        try:
            found = oracle.oracle_search(aut, params)
        except ResourceCapError:
            return
        if found.found_length is None and need_saturation and not found.saturated:
            return
        self._expect(query, found.found_length is None,
                     f"oracle found a synchronizing word {found.witness}")

    def _sync_dra(self, query, aut, verdict) -> None:
        word, k = verdict.result, aut.registers
        if k == 1:
            self._expect(query, verdict.dra1 == (word is not None),
                         f"dra1_decide says {verdict.dra1}, search says {word is not None}")
        if word is None:
            self._oracle_finds_none(query, aut, oracle.OracleParams(
                64, 2 * k + 1, max_nodes=NO_CHECK_NODES), need_saturation=True)
            return
        self._expect(query, len(_word_data(word)) <= 2 * k + 1,
                     f"witness uses more than 2k+1 data: {word}")
        self._expect(query, self._synchronizes(aut, word), f"not synchronizing: {word}")

    def _sync_bounded(self, query, aut, verdict) -> None:
        out = verdict.result
        if isinstance(out, nra.Witness):
            self._expect(query, 1 <= len(out.word) <= query.bound, f"witness length {out.word}")
            self._expect(query, self._synchronizes(aut, out.word),
                         f"not synchronizing: {out.word}")
        else:
            self._oracle_finds_none(query, aut, oracle.OracleParams(
                query.bound, query.bound, max_nodes=NO_CHECK_NODES), need_saturation=False)

    def _universality(self, query, aut, verdict) -> None:
        out = verdict.result
        if isinstance(out, nra.Witness):
            self._expect(query, len(out.word) <= query.bound, f"witness length {out.word}")
            self._expect(query, not nra.accepts(aut, out.word) and
                         not concrete_accepts(aut, out.word),
                         f"counterexample is accepted: {out.word}")

    def _nonempty(self, query, aut, verdict) -> None:
        out = verdict.result
        if isinstance(out, nra.Witness):
            self._expect(query, len(out.word) <= query.bound, f"witness length {out.word}")
            self._expect(query, nra.accepts(aut, out.word) and concrete_accepts(aut, out.word),
                         f"witness is not accepted: {out.word}")

    def _accepts(self, query, aut, verdict) -> None:
        self._expect(query, verdict.result == concrete_accepts(aut, query.word),
                     f"accepts says {verdict.result} on {query.word}")

    def _run(self, query, aut, verdict) -> None:
        size = len(aut.locations) * (len(_word_data(query.word)) + aut.registers) ** aut.registers
        if size > RUN_CONFIG_CAP:
            return
        aset = verdict.result
        self._expect(query, set(aset.configs) == concrete_abstraction(aut, query.word)
                     and aset.word_data_count == len(_word_data(query.word)),
                     f"abstract_run disagrees with the concrete run on {query.word}")
