"""Shared construction and enumeration helpers for the test suite."""

from __future__ import annotations

import contextlib
import itertools
import random
import re
from collections import deque

import pytest

from regsync import semantics
from regsync.dsl import MAX_GUARD_DEPTH, DslError, ParseDiagnostic, SourceDocument
from regsync.oracle import OracleSearch, oracle_is_synchronizing
from regsync.ra import (
    REGISTER_ENUMERATION_CAP,
    TRUE,
    Acceptance,
    And,
    Eq,
    Not,
    RegisterAutomaton,
    ResourceCapError,
    conj,
    disj,
    guard_registers,
    mk_transition,
    neq,
)
from regsync.semantics import (
    FRESH,
    AbstractConfigSet,
    InconclusiveError,
    _Budget,
    _canon_values,
    bfs_path,
    choice_of_word,
    engine_for,
    instantiate_choice_word,
    is_synchronized,
)


def raises_exactly(call, error, message):
    """Check that `call()` raises an exception of type `error` itself, not a
    subclass, whose text is `message`."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def automaton(name, locations, registers, alphabet, transitions, acceptance=None):
    """Transitions as (src_name, letter_name, guard, update, dst_name)."""
    loc_ids = {n: i for i, n in enumerate(locations)}
    letter_ids = {n: i for i, n in enumerate(alphabet)}
    ts = tuple(mk_transition(loc_ids[s], letter_ids[a], g, u, loc_ids[d])
               for s, a, g, u, d in transitions)
    acc = None
    if acceptance is not None:
        initial, accepting = acceptance
        acc = Acceptance(loc_ids[initial], frozenset(loc_ids[n] for n in accepting))
    return RegisterAutomaton(name, tuple(locations), registers, tuple(alphabet), ts, acc)


def minterm(bits, k):
    """Conjunction fixing every atom: bits[j] says whether =r<j> holds."""
    return conj([Eq(j) if bits >> j & 1 else neq(j) for j in range(k)])


def _cell_guard(sigmas, k):
    if len(sigmas) == 1 << k:
        return TRUE
    return disj([minterm(s, k) for s in sigmas])


def random_complete_automaton(rng: random.Random, n_locations, k, n_letters,
                              deterministic=False, acceptance=False, sparse=False):
    """A random complete RA; per cell the assignment space is partitioned
    among transitions (deterministic) or covered with possible overlaps.

    `sparse` (with `acceptance`) adds no overlapping transitions and makes
    one location other than the initial one accepting, so that few words
    are accepted and a wrong non-emptiness witness shows."""
    locations = [f"q{i}" for i in range(n_locations)]
    alphabet = [chr(ord("a") + i) for i in range(n_letters)]
    transitions = []
    full = frozenset(range(k))
    initial = 0 if acceptance else None

    def pick_update(source):
        if acceptance and source == 0:
            return full
        return frozenset(j for j in range(k) if rng.random() < 0.4)

    for loc in range(n_locations):
        for letter in range(n_letters):
            sigmas = list(range(1 << k))
            rng.shuffle(sigmas)
            n_parts = rng.randint(1, min(3, len(sigmas)))
            cuts = sorted(rng.sample(range(1, len(sigmas)), n_parts - 1)) if n_parts > 1 else []
            parts = []
            prev = 0
            for cut in cuts + [len(sigmas)]:
                parts.append(sigmas[prev:cut])
                prev = cut
            for part in parts:
                transitions.append(mk_transition(
                    loc, letter, _cell_guard(sorted(part), k),
                    pick_update(loc), rng.randrange(n_locations)))
            if not (deterministic or sparse):
                for _ in range(rng.randint(0, 2)):
                    sub = rng.sample(range(1 << k), rng.randint(1, 1 << k))
                    transitions.append(mk_transition(
                        loc, letter, _cell_guard(sorted(sub), k),
                        pick_update(loc), rng.randrange(n_locations)))
    acc = None
    if acceptance:
        if sparse:
            accepting = frozenset({rng.randrange(1, n_locations)} if n_locations > 1 else ())
        else:
            accepting = frozenset(i for i in range(n_locations) if rng.random() < 0.5)
        acc = Acceptance(initial, accepting)
    return RegisterAutomaton(
        f"rand{rng.randrange(10**6)}", tuple(locations), k, tuple(alphabet),
        tuple(transitions), acc)


def enumerate_1dras(n_locations, n_letters):
    """Every complete deterministic 1-register automaton whose cells are a
    single true-guarded transition or an (=r0, !=r0) pair, with updates from
    {none, r0}."""
    true_opts = [(("t", up, tgt),)
                 for up in (frozenset(), frozenset({0}))
                 for tgt in range(n_locations)]
    pair_opts = [(("e", up1, t1), ("n", up2, t2))
                 for up1 in (frozenset(), frozenset({0}))
                 for t1 in range(n_locations)
                 for up2 in (frozenset(), frozenset({0}))
                 for t2 in range(n_locations)]
    options = true_opts + pair_opts
    cells = [(loc, letter) for loc in range(n_locations) for letter in range(n_letters)]
    locations = tuple(f"q{i}" for i in range(n_locations))
    alphabet = tuple(chr(ord("a") + i) for i in range(n_letters))
    guards = {"t": TRUE, "e": Eq(0), "n": neq(0)}
    for combo in itertools.product(options, repeat=len(cells)):
        transitions = []
        for (loc, letter), cell in zip(cells, combo):
            for kind, update, target in cell:
                transitions.append(mk_transition(loc, letter, guards[kind], update, target))
        yield RegisterAutomaton(
            "grid", locations, 1, alphabet, tuple(transitions), None)


def all_choice_words(n_letters, max_length, max_fresh=None):
    """Every choice word of length <= max_length, canonical Seen/Fresh form."""
    def rec(prefix, used):
        yield tuple(prefix)
        if len(prefix) == max_length:
            return
        choices = list(range(used))
        if max_fresh is None or used < max_fresh:
            choices.append(FRESH)
        for letter in range(n_letters):
            for choice in choices:
                prefix.append((letter, choice))
                yield from rec(prefix, used + (1 if choice == FRESH else 0))
                prefix.pop()

    yield from rec([], 0)


def random_guard(rng: random.Random, k, depth=2):
    if depth == 0 or rng.random() < 0.35:
        if k == 0 or rng.random() < 0.25:
            return TRUE
        return Eq(rng.randrange(k))
    if rng.random() < 0.5:
        return And(random_guard(rng, k, depth - 1), random_guard(rng, k, depth - 1))
    return Not(random_guard(rng, k, depth - 1))


def concrete_merge(eng, q1, q2, pool):
    """Reference for dra._merge: breadth-first over concrete unordered pairs,
    trying every pool datum at every step, with no node budget."""
    start = frozenset((q1, q2))
    if len(start) == 1:
        return ()
    parents = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        for letter in range(eng.n_letters):
            for datum in pool:
                nxt = frozenset(eng.post_config(q, letter, datum)[0] for q in pair)
                if nxt in parents:
                    continue
                parents[nxt] = (pair, (letter, datum))
                if len(nxt) == 1:
                    return bfs_path(parents, nxt)
                queue.append(nxt)
    return None


def reference_orbit_key(pair) -> tuple:
    """Reference for dra._orbit_key, as it was before the flat key: the
    least, over both orderings, of nested (location, renumbered values)
    tuples, renumbered in first-occurrence order."""
    keys = []
    for ordered in (pair, pair[::-1]):
        ids = {}
        keys.append(tuple((loc, tuple(ids.setdefault(v, len(ids)) for v in values))
                          for loc, values in ordered))
    return min(keys)


# ---------------------------------------------------------------------------
# Reference bounded NRA search: breadth-first over tuple sets with no
# pruning, as it was before the searches moved to interned bitmasks,
# subsumption pruning and the goal-directed last layer.  It appends its
# dedup table, each set mapped to the depth it was found at, to `tables`.


def _ref_moves(eng, aset, max_data):
    choices = list(range(aset.word_data_count))
    if max_data is None or aset.word_data_count < max_data:
        choices.append(FRESH)
    return [(letter, choice) for letter in range(eng.n_letters) for choice in choices]


def reference_search_bfs(eng, root, goal, max_length, max_data, budget, tables):
    parents = {root: None}
    depth_of = {root: 0}
    tables.append(depth_of)
    queue = deque([(root, 0)])
    while queue:
        aset, depth = queue.popleft()
        if max_length is not None and depth >= max_length:
            continue
        for letter, choice in _ref_moves(eng, aset, max_data):
            budget.tick()
            nxt = eng.abstract_post(aset, letter, choice)
            if nxt in parents:
                continue
            parents[nxt] = (aset, (letter, choice))
            depth_of[nxt] = depth + 1
            if goal(nxt):
                return bfs_path(parents, nxt)
            queue.append((nxt, depth + 1))
    return None


def reference_outcome(aut, bound, max_data=None, max_nodes=None, universality=False):
    """(kind, choice word, explored, queued) of bounded_sync_search, or of
    bounded_universality_witness when `universality`, by the reference
    search.  queued counts the sets of its dedup table that the bounded
    searches store: the root, every set found above the last layer
    (depth < bound), and a witness found on the last layer."""
    eng = engine_for(aut)
    if universality:
        acc = aut.acceptance
        root = AbstractConfigSet(tuple(c for c in eng.abstract_initial().configs
                                       if c[0] == acc.initial), 0)

        def goal(aset):
            return all(loc not in acc.accepting for loc, _ in aset.configs)

        if goal(root):
            return ("Witness", (), 0, 0)
    else:
        root, goal = eng.abstract_initial(), is_synchronized
    budget = _Budget(max_nodes, "search")
    tables = []

    def queued(witnesses=0):
        return witnesses + sum(depth < bound for depth_of in tables
                               for depth in depth_of.values())

    try:
        path = reference_search_bfs(eng, root, goal, bound, max_data, budget, tables)
    except InconclusiveError:
        return ("BudgetExhausted", None, budget.spent, queued())
    if path is None:
        return ("NoneWithinBound", None, budget.spent, queued())
    return ("Witness", tuple(path), budget.spent, queued(len(path) == bound))


def reference_abstract_successors(eng, config, letter, inp, fresh):
    """Reference for Engine._abstract_successors: every variant's input
    equalities found by scanning its values, every successor canonicalized."""
    loc, values = config
    variants = [values]
    if fresh:
        for b in dict.fromkeys(v for v in values if v < 0):
            variants.append(tuple(inp if v == b else v for v in values))
    out = set()
    for vals in variants:
        sigma = 0
        for j, v in enumerate(vals):
            if v == inp:
                sigma |= 1 << j
        for mask, update, target in eng.table[loc][letter]:
            if mask >> sigma & 1:
                nv = list(vals)
                for r in update:
                    nv[r] = inp
                out.add((target, _canon_values(nv)))
    return tuple(out)


@contextlib.contextmanager
def kernel_tables(cap=None):
    """Empty process-wide split and write tables of `semantics` for the
    block, capped at `cap` entries when it is given; the old tables and cap
    after it."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_SPLITS", "_WRITES", "_WRITTEN"):
            patch.setattr(semantics, name, {})
        if cap is not None:
            patch.setattr(semantics, "KERNEL_TABLE_CAP", cap)
        yield


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def reference_update_reachability(aut, generalized: bool) -> list:
    """Reference for dra._update_reachability, as it was before the submask
    table: each edge tests its guard mask on every submask of the updated
    registers in turn."""
    k = aut.registers
    full = (1 << k) - 1
    edges = [[(mask, sum(1 << r for r in update), target)
              for cell in row for mask, update, target in cell]
             for row in aut.compiled.table]
    out = []
    for start in range(len(aut.locations)):
        seen = {(start, 0)}
        queue = deque(seen)
        ok = k == 0
        while queue and not ok:
            loc, up = queue.popleft()
            for gm, upm, target in edges[loc]:
                if generalized:
                    usable = any(gm >> s & 1 for s in _submasks(up))
                else:
                    usable = bool(gm & 1)
                if not usable:
                    continue
                state = (target, up | upm)
                if state[1] == full:
                    ok = True
                    break
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
        out.append(ok)
    return out


def reference_accepts(aut, word) -> bool:
    """Reference for nra.accepts, as it was before membership became a
    concrete run: the abstract run of the word's choice word from every
    register partition at the initial location."""
    eng = engine_for(aut)
    acc = aut.acceptance
    root = AbstractConfigSet(tuple(c for c in eng.abstract_initial().configs
                                   if c[0] == acc.initial), 0)
    aset = root
    for letter, choice in choice_of_word(word):
        aset = eng.abstract_post(aset, letter, choice)
    return any(loc in acc.accepting for loc, _ in aset.configs)


def reference_same_pattern(a, b) -> bool:
    """Reference for comparing semantics.pattern_of: does a bijection of
    data map the tuple `a` onto `b` entry by entry, that is, are a[i] and
    a[j] equal exactly when b[i] and b[j] are?"""
    return len(a) == len(b) and all((a[i] == a[j]) == (b[i] == b[j])
                                    for i in range(len(a)) for j in range(len(a)))


def reference_partitions(k: int) -> list:
    """Reference for semantics.PARTITIONS[k]: the restricted-growth strings
    among all k-tuples over range(k), in increasing order."""
    return [p for p in itertools.product(range(k), repeat=k)
            if all(p[i] <= max(p[:i], default=-1) + 1 for i in range(k))]


def reference_word_data(word) -> list:
    """Reference for semantics.word_data: a list scan per datum."""
    out = []
    for _, d in word:
        if d not in out:
            out.append(d)
    return out


def reference_choice_of_word(word) -> tuple:
    """Reference for semantics.choice_of_word: each datum's index in the
    list of data seen so far, or FRESH."""
    order = []
    out = []
    for letter, d in word:
        if d in order:
            out.append((letter, order.index(d)))
        else:
            order.append(d)
            out.append((letter, FRESH))
    return tuple(out)


def canonicalize(aset: AbstractConfigSet) -> AbstractConfigSet:
    """Canonical form of an abstract set: per-config Sym renumbering, dedup,
    fixed total order.  Every set the Engine builds is its own canonical
    form."""
    configs = {(loc, _canon_values(values)) for loc, values in aset.configs}
    return AbstractConfigSet(tuple(sorted(configs)), aset.word_data_count)


def oracle_search_concrete(aut, max_length, pool_size,
                           max_nodes=semantics.DEFAULT_MAX_NODES) -> OracleSearch:
    """Reference for oracle.oracle_search: plain enumeration of every word
    over the full pool {0..pool_size-1}, shortest first, each checked with
    oracle_is_synchronizing."""
    explored = 0
    for length in range(1, max_length + 1):
        stack = [()]
        while stack:
            word = stack.pop()
            if len(word) == length:
                explored += 1
                if explored > max_nodes:
                    raise ResourceCapError(f"oracle enumeration exceeded {max_nodes} words")
                if oracle_is_synchronizing(aut, word):
                    return OracleSearch(length, word, False, explored)
                continue
            for letter in range(len(aut.alphabet)):
                for datum in range(pool_size):
                    stack.append(word + ((letter, datum),))
    return OracleSearch(None, None, False, explored)


def reference_post_set(eng, configs, word) -> frozenset:
    """Reference for Engine.post_set: the union of post_config per
    configuration, letter by letter."""
    current = frozenset(configs)
    for letter, datum in word:
        current = frozenset(succ for config in current
                            for succ in eng.post_config(config, letter, datum))
    return current


def outcome_signature(out):
    """reference_outcome's form of a bounded search outcome."""
    return (type(out).__name__, getattr(out, "choice_word", None), out.explored, out.queued)


def _dirty(config) -> bool:
    return any(v < 0 for v in config[1])


def pair_state_shrink(aut, max_nodes=1_000_000):
    """Reference for dra.shrink_word: (result, nodes spent).  Each round is a
    breadth-first search over pairs (whole abstract set, dirty sub-set),
    counting every expansion and testing the goal when a pair is popped."""
    from regsync import dra

    dra._require_dra(aut)
    eng = engine_for(aut)
    k = aut.registers
    for loc, ok in enumerate(dra._update_reachability(aut, generalized=True)):
        if not ok:
            return dra.NotShrinkable(loc), 0
    current = eng.abstract_initial()
    choices = []
    explored = 0
    while True:
        dirty_locs = sorted({c[0] for c in current.configs if _dirty(c)})
        if not dirty_locs:
            break
        loc0 = dirty_locs[0]
        sub = AbstractConfigSet(
            tuple(c for c in current.configs if c[0] == loc0 and _dirty(c)),
            current.word_data_count)
        found = None
        start = (current, sub)
        parents = {start: None}
        queue = deque([start])
        while queue:
            state = queue.popleft()
            aset, asub = state
            if not any(_dirty(c) for c in asub.configs):
                found = state
                break
            moves = list(range(aset.word_data_count))
            if aset.word_data_count < k:
                moves.append(FRESH)
            for letter in range(eng.n_letters):
                for choice in moves:
                    explored += 1
                    if explored > max_nodes:
                        raise dra.InconclusiveError(
                            f"shrink search exceeded {max_nodes} nodes", explored, "shrink")
                    nxt = (eng.abstract_post(aset, letter, choice),
                           eng.abstract_post(asub, letter, choice))
                    if nxt in parents:
                        continue
                    parents[nxt] = (state, (letter, choice))
                    queue.append(nxt)
        if found is None:
            return dra.NotShrinkable(loc0), explored
        choices.extend(bfs_path(parents, found))
        current = found[0]
    word = instantiate_choice_word(tuple(choices), range(k))
    residual = frozenset(current.configs)
    return dra.ShrinkResult(word, residual), explored


# ---------------------------------------------------------------------------
# Reference for dsl.parse_automaton on DSL text: the parser before the guard
# memo, which tokenized every line with columns and parsed every guard anew.

_REF_GUARD_TOKEN = re.compile(r"\s*(!=r\d+|=r\d+|true|[()!&|])")


def _ref_tokenize_guard(text, line, base_col):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_GUARD_TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise DslError([ParseDiagnostic(line, base_col + pos + 1,
                                            f"bad guard token near {rest[:12]!r}")])
        tokens.append((m.group(1), base_col + m.start(1) + 1))
        pos = m.end()
    return tokens


class _RefGuardParser:
    def __init__(self, tokens, line, end_col):
        self.tokens = tokens
        self.line = line
        self.end_col = end_col
        self.pos = 0
        self.nesting = 0

    def _fail(self, message):
        col = self.tokens[self.pos][1] if self.pos < len(self.tokens) else self.end_col
        raise DslError([ParseDiagnostic(self.line, col, message)])

    def _checked(self, depth, pos):
        if depth > MAX_GUARD_DEPTH:
            self.pos = pos
            self._fail(f"guard nested deeper than {MAX_GUARD_DEPTH} levels")
        return depth

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of guard")
        self.pos += 1
        return tok

    def parse(self):
        out, _ = self.parse_or()
        if self.peek() is not None:
            self._fail(f"unexpected guard token {self.peek()!r}")
        return out

    def parse_or(self):
        out, height = self.parse_and()
        while self.peek() == "|":
            at = self.pos
            self.take()
            rhs, rhs_height = self.parse_and()
            out = Not(And(Not(out), Not(rhs)))
            height = self._checked(3 + max(height, rhs_height), at)
        return out, height

    def parse_and(self):
        out, height = self.parse_unary()
        while self.peek() == "&":
            at = self.pos
            self.take()
            rhs, rhs_height = self.parse_unary()
            out = And(out, rhs)
            height = self._checked(1 + max(height, rhs_height), at)
        return out, height

    def parse_unary(self):
        tok = self.peek()
        if tok in ("!", "("):
            at = self.pos
            self.nesting = self._checked(self.nesting + 1, at)
            self.take()
            if tok == "!":
                operand, height = self.parse_unary()
                out = Not(operand), self._checked(height + 1, at)
            else:
                out = self.parse_or()
                if self.peek() != ")":
                    self._fail("expected ')'")
                self.take()
            self.nesting -= 1
            return out
        tok = self.take()
        if tok == "true":
            return TRUE, 1
        if tok.startswith("!=r"):
            return Not(Eq(int(tok[3:]))), 2
        if tok.startswith("=r"):
            return Eq(int(tok[2:])), 1
        self._fail(f"unexpected guard token {tok!r}")


def reference_parse_guard(text, line=1, base_col=0):
    tokens = _ref_tokenize_guard(text, line, base_col)
    if not tokens:
        raise DslError([ParseDiagnostic(line, base_col + 1, "empty guard")])
    return _RefGuardParser(tokens, line, base_col + len(text)).parse()


def reference_parse_automaton(doc):
    if isinstance(doc, str):
        doc = SourceDocument(doc)
    diags = []
    name = registers = alphabet = initial = None
    locations, accepting, pending = [], [], []
    for lineno, raw in enumerate(doc.text.splitlines(), start=1):
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", raw)]
        if not tokens:
            continue
        head, col = tokens[0]
        rest = tokens[1:]
        if head == "automaton":
            if len(rest) != 1:
                diags.append(ParseDiagnostic(lineno, col, "expected: automaton <name>"))
            else:
                name = rest[0][0]
        elif head == "registers":
            if len(rest) != 1 or not rest[0][0].isdigit():
                diags.append(ParseDiagnostic(lineno, col, "expected: registers <k>"))
            else:
                registers = int(rest[0][0])
                if registers > REGISTER_ENUMERATION_CAP:
                    diags.append(ParseDiagnostic(
                        lineno, rest[0][1],
                        f"register count {registers} exceeds the cap {REGISTER_ENUMERATION_CAP}"))
        elif head == "alphabet":
            alphabet = [tok for tok, _ in rest]
        elif head == "location":
            if not rest:
                diags.append(ParseDiagnostic(lineno, col, "expected: location <name> ..."))
                continue
            loc, loc_col = rest[0]
            if loc in locations:
                diags.append(ParseDiagnostic(lineno, loc_col, f"duplicate location name {loc!r}"))
                continue
            locations.append(loc)
            for flag, flag_col in rest[1:]:
                if flag == "initial":
                    if initial is not None:
                        diags.append(ParseDiagnostic(lineno, flag_col, "second initial location"))
                    initial = loc
                elif flag == "accepting":
                    accepting.append(loc)
                else:
                    diags.append(ParseDiagnostic(lineno, flag_col,
                                                 f"unknown location flag {flag!r}"))
        elif head == "trans":
            pending.append((lineno, raw, tokens))
        else:
            diags.append(ParseDiagnostic(lineno, col, f"unknown directive {head!r}"))
    if name is None:
        diags.append(ParseDiagnostic(1, 1, "missing 'automaton <name>' header"))
    if registers is None:
        diags.append(ParseDiagnostic(1, 1, "missing 'registers <k>' header"))
    if alphabet is None:
        diags.append(ParseDiagnostic(1, 1, "missing 'alphabet ...' header"))
    seen_letters = set()
    for letter in alphabet or ():
        if letter in seen_letters:
            diags.append(ParseDiagnostic(1, 1, f"duplicate letter name {letter!r}"))
        seen_letters.add(letter)
    if diags:
        raise DslError(diags, doc.provenance)
    loc_ids = {n: i for i, n in enumerate(locations)}
    letter_ids = {n: i for i, n in enumerate(alphabet)}
    transitions = [_ref_parse_transition(lineno, raw, tokens, loc_ids, letter_ids, registers,
                                         diags)
                   for lineno, raw, tokens in pending]
    if diags:
        raise DslError(diags, doc.provenance)
    acceptance = None
    if initial is not None or accepting:
        if initial is None:
            raise DslError([ParseDiagnostic(1, 1,
                                            "accepting locations without an initial location")],
                           doc.provenance)
        acceptance = Acceptance(loc_ids[initial], frozenset(loc_ids[n] for n in accepting))
    return RegisterAutomaton(name, tuple(locations), registers, tuple(alphabet),
                             tuple(transitions), acceptance)


def _ref_parse_transition(lineno, raw, tokens, loc_ids, letter_ids, k, diags):
    words = [tok for tok, _ in tokens]
    cols = {i: col for i, (_, col) in enumerate(tokens)}

    def fail(i, message):
        diags.append(ParseDiagnostic(lineno, cols.get(i, len(raw) + 1), message))

    if not (len(words) >= 7 and words[2] == "->" and words[4] == "on" and words[6] == "when"):
        fail(0, "expected: trans <src> -> <dst> on <sym> when <guard> [set ...]")
        return None
    src, dst, sym = words[1], words[3], words[5]
    if src not in loc_ids:
        fail(1, f"unknown location {src!r}")
    if dst not in loc_ids:
        fail(3, f"unknown location {dst!r}")
    if sym not in letter_ids:
        fail(5, f"unknown letter {sym!r}")
    set_at = next((i for i in range(7, len(words)) if words[i] == "set"), None)
    if len(words) == 7 or set_at == 7:
        fail(6, "missing guard after 'when'")
        return None
    start = cols[7] - 1
    end = cols[set_at] - 1 if set_at is not None else len(raw)
    try:
        guard = reference_parse_guard(raw[start:end], lineno, start)
    except DslError as err:
        diags.extend(err.diagnostics)
        return None
    update = set()
    if set_at is not None:
        regs = words[set_at + 1:]
        if not regs:
            fail(set_at, "empty 'set' clause")
        elif regs == ["*"]:
            update = set(range(k))
        else:
            for off, reg in enumerate(regs):
                if re.fullmatch(r"r\d+", reg):
                    idx = int(reg[1:])
                    if idx >= k:
                        fail(set_at + 1 + off, f"update register {reg} out of range")
                    update.add(idx)
                else:
                    fail(set_at + 1 + off, f"bad register {reg!r} (expected r<i> or *)")
    bad = sorted(r for r in guard_registers(guard) if r >= k)
    if bad:
        fail(7, f"guard register out of range: r{bad[0]}")
    if diags:
        return None
    return mk_transition(loc_ids[src], letter_ids[sym], guard, update, loc_ids[dst])
