"""Concrete successor computation and the exact bijection-quotient abstraction.

A data word is a tuple of (letter id, datum) pairs.  A choice word abstracts
the data up to bijection: each entry's datum is either Seen(i) -- the i-th
distinct datum introduced so far, encoded as the int i -- or FRESH.

Abstract values encode "the i-th distinct word datum" as the int i >= 0 and
symbolic initial-register blocks as negative ints (block b is -1-b).  Within
one abstract configuration, distinct blocks denote pairwise-distinct data,
all distinct from every word datum introduced so far; those invariants make
guard atoms decidable on abstract values by plain int equality.  Reading a
fresh datum splits each configuration into the branch where no block equals
it plus one branch per block that does -- the only point where the unknown
initial data interact with the word.

The automaton-free half of that step reads two process-wide tables, filled
on first use: the split table maps (values, fresh input) to the branches
above with each branch's input equalities, and the write table maps (values,
update, input) to the canonical values after the update writes the input,
storing each distinct result once.  They hold tuples of ints and frozensets
of registers, no automaton data, which is why they may be shared when
Engines are not, and they are emptied wholesale once they hold
KERNEL_TABLE_CAP entries.  A seen input's equalities are computed in place,
since a lookup measured no cheaper.

Data matter only up to bijection, so k registers count only by their
equality pattern.  Three constants, built at import for every k <=
ra.REGISTER_ENUMERATION_CAP, spell those patterns: PARTITIONS[k] as
restricted-growth strings, INITIAL_VALUATIONS[k] as the sorted canonical
block tuples that are the abstract initial valuations, and SUBMASK_UNIONS[k]
for the DRA reachability check.  `pattern_of` renames any tuple of data to
its pattern the same way.

An Engine keeps one memo of per-configuration successors, over masks, for
the searches: sets are int bitmasks over configurations the Engine interns
as small ids, a step ORs memoized successor masks, and dedup hashes one
int.  The memo is cleared whenever it passes SUCCESSOR_MEMO_CAP entries.
Ids outlive it; the intern table is cleared only at the root of a search,
once it holds more than SUCCESSOR_MEMO_CAP configurations, never while a
search holds ids.  Single walks keep no per-configuration memo.  They
walk a set grouped by valuation, as a dict from each valuation to the mask
of the locations holding it: a step computes a valuation's sigma, or its
fresh-split branches, once, reads what that location mask fires from the
firing table of the automaton's compiled form (ra.CompiledAutomaton.fire),
and writes each update once per valuation.  The firing table is shared by
every automaton parsed from one text and emptied at ra.FIRING_TABLE_CAP
entries.  `abstract_post` steps an abstract set this way, for
`abstract_run` (the `run` query) and the DRA shrink's replay of each word
it found; `walk`, the one concrete set step, steps a concrete set
(membership, and through `post_set` the DRA merge replay).  An
AbstractConfigSet holds the grouped form itself, so each step reads the
groups the last one wrote, and a set's sorted configurations are built
only when read.

`walk` may forget a datum after the last position of its word that reads
it: it stores DEAD, an object equal to no datum, in its place.  A guard
compares registers with the input only, so no later guard can tell dead
data apart, the locations reached stay exact, and valuations that differ
only in dead data merge.  Membership forgets; `post_set` keeps every
datum, because the DRA merge replay hands its configurations to the next
merge.

`_search_bfs` is the one breadth-first search over abstract sets, for the
bounded NRA searches and the DRA shrink alike.  It prunes masks by
subsumption (the antichain idea of De Wulf, Doyen, Henzinger and Raskin,
CAV 2006), and on a length-bounded search's last layer, which is never
expanded, lets `mask_post` stop once its partial successor fails the goal.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .ra import REGISTER_ENUMERATION_CAP, RegisterAutomaton, StructuralError, check_validated

FRESH = -1
# What a concrete walk stores in place of a datum its word no longer reads
# (Engine.walk): an object equal to no datum, since callers choose the data.
DEAD = object()

# Entries an Engine's successor memo may hold before it is cleared.
SUCCESSOR_MEMO_CAP = 100_000
# Entries the process-wide split table and write table may each hold before
# it is emptied.
KERNEL_TABLE_CAP = 1 << 15


def sym(block: int) -> int:
    return -1 - block


def word_data(word) -> list:
    """Distinct data of a data word, in order of first occurrence."""
    return list(dict.fromkeys(d for _, d in word))


def choice_of_word(word) -> tuple:
    """The canonical choice word of a data word (first-occurrence abstraction)."""
    index = {}
    out = []
    for letter, d in word:
        i = index.get(d)
        if i is None:
            index[d] = len(index)
            out.append((letter, FRESH))
        else:
            out.append((letter, i))
    return tuple(out)


def instantiate_choice_word(cword, pool) -> tuple:
    """Concrete data word: FRESH entries consume successive pool data."""
    pool = list(pool)
    if len(set(pool)) != len(pool):
        raise ValueError("instantiation pool must be pairwise distinct")
    used = 0
    out = []
    for letter, choice in cword:
        if choice == FRESH:
            if used >= len(pool):
                raise ValueError("instantiation pool too small for this choice word")
            out.append((letter, pool[used]))
            used += 1
        else:
            if not 0 <= choice < used:
                raise ValueError(f"Seen({choice}) before {choice + 1} fresh data were introduced")
            out.append((letter, pool[choice]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Abstract configuration sets


class AbstractConfigSet:
    """A set of abstract configurations, (location, values) pairs each with
    its blocks numbered in first-occurrence order, and the number of word
    data read so far.

    Its representation is `groups`, a dict from each valuation to the mask
    of the locations holding it: the form `Engine.abstract_post` steps, so a
    walk never regroups or sorts between steps.  `configs`, the pairs in
    sorted order without duplicates, is built on first read and kept.  A set
    built from configs keeps them untouched until `groups` is first read, so
    `check_configs` can still reject a location no mask could hold.
    Equality and the hash read `word_data_count` and `groups`; `groups` must
    not be mutated."""

    __slots__ = ("_m", "_given", "_groups", "_configs", "_hash")

    def __init__(self, configs, word_data_count: int):
        self._m = word_data_count
        self._given = configs
        self._groups = None
        self._configs = None
        self._hash = None

    @classmethod
    def from_groups(cls, groups: dict, word_data_count: int) -> "AbstractConfigSet":
        """The set whose `groups` is `groups`, a dict from valuations to
        nonzero location masks."""
        aset = cls(None, word_data_count)
        aset._groups = groups
        return aset

    @property
    def word_data_count(self) -> int:
        return self._m

    @property
    def groups(self) -> dict:
        groups = self._groups
        if groups is None:
            groups = self._groups = _grouped(self._given)
            self._given = None
        return groups

    @property
    def configs(self) -> tuple:
        configs = self._configs
        if configs is None:
            if self._groups is None:
                configs = self._given = tuple(sorted(set(self._given)))
            else:
                configs = tuple(sorted(_ungrouped(self._groups)))
            self._configs = configs
        return configs

    def __len__(self) -> int:
        return sum(locs.bit_count() for locs in self.groups.values())

    def __eq__(self, other):
        if not isinstance(other, AbstractConfigSet):
            return NotImplemented
        return self._m == other._m and self.groups == other.groups

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._m, frozenset(self.groups.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"AbstractConfigSet(configs={self.configs!r}, word_data_count={self._m!r})"


def _canon_values(values) -> tuple:
    """Renumber Sym blocks 0,1,... in first-occurrence order."""
    mapping = {}
    out = []
    for v in values:
        if v < 0:
            if v not in mapping:
                mapping[v] = -1 - len(mapping)
            out.append(mapping[v])
        else:
            out.append(v)
    return tuple(out)


def is_synchronized(aset: AbstractConfigSet) -> bool:
    """Exactly one configuration and no symbolic value in it."""
    groups = aset.groups
    if len(groups) != 1:
        return False
    (values, locs), = groups.items()
    return locs & (locs - 1) == 0 and all(v >= 0 for v in values)


def pattern_of(values) -> tuple:
    """`values` up to a bijection of data: each value renumbered 0, 1, ...
    in the order of its first occurrence."""
    ids = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return tuple(map(ids.__getitem__, values))


def _register_patterns() -> tuple:
    """Entry k: every set partition of range(k) as a restricted-growth
    string, in increasing order."""
    rows = [((),)]
    for _ in range(REGISTER_ENUMERATION_CAP):
        rows.append(tuple(rgs + (b,) for rgs in rows[-1] for b in range(max(rgs, default=-1) + 2)))
    return tuple(rows)


def _submask_table() -> tuple:
    """Entry k: for each up < 2**k, the mask with bit s set for each
    submask s of up, so `gm & SUBMASK_UNIONS[k][up]` tests whether guard
    mask gm holds under some assignment touching only registers in up."""
    rows = [1]
    for up in range(1, 1 << REGISTER_ENUMERATION_CAP):
        # the submasks of up without its lowest bit, each with and without it
        below = rows[up & (up - 1)]
        rows.append(below | below << (up & -up))
    return tuple(tuple(rows[:1 << k]) for k in range(REGISTER_ENUMERATION_CAP + 1))


# The register patterns, indexed by k (see the module docstring).
PARTITIONS = _register_patterns()
INITIAL_VALUATIONS = tuple(tuple(sorted(tuple(map(sym, rgs)) for rgs in row))
                           for row in PARTITIONS)
SUBMASK_UNIONS = _submask_table()


# ---------------------------------------------------------------------------
# The automaton-free half of the abstract step: process-wide tables (see the
# module docstring) that every Engine reads.

_SPLITS: dict = {}  # (values, fresh input) -> ((variant values, sigma), ...)
_WRITES: dict = {}  # (values, update, inp) -> canonical values after the write
_WRITTEN: dict = {}  # each distinct value of _WRITES -> itself, stored once


def _fresh_split(values: tuple, inp: int) -> tuple:
    """The split table's entry for canonical `values` on the fresh input
    `inp`, filled now: (variant values, sigma) pairs, sigma being the mask
    of registers equal to the input.  Branch (a): the fresh datum differs
    from every block and word datum, so it equals no register.  Branches
    (b): it resolves exactly one block b to Word(inp) and equals the
    registers b held; the later blocks move up one, which keeps each
    variant canonical."""
    blocks = {}
    for j, v in enumerate(values):
        if v < 0:
            blocks[v] = blocks.get(v, 0) | 1 << j
    variants = ((values, 0), *((tuple(inp if v == b else v + 1 if v < b else v
                                      for v in values), sigma)
                               for b, sigma in blocks.items()))
    if len(_SPLITS) >= KERNEL_TABLE_CAP:
        _SPLITS.clear()
    _SPLITS[values, inp] = variants
    return variants


def _write(key: tuple) -> tuple:
    """The write table's entry for `key` = (values, update, inp), filled
    now: the canonical values after `update` writes `inp`."""
    values, update, inp = key
    nv = list(values)
    for r in update:
        nv[r] = inp
    nv = _canon_values(nv)
    if len(_WRITES) >= KERNEL_TABLE_CAP:
        _WRITES.clear()
        _WRITTEN.clear()
    nv = _WRITES[key] = _WRITTEN.setdefault(nv, nv)
    return nv


# ---------------------------------------------------------------------------
# Compiled engine


class Engine:
    """Per-automaton tables for fast concrete and abstract successor steps.

    The table is the automaton's compiled cell table: guards as bitmasks over
    atom assignments, where an input's assignment is the bitmask of registers
    whose (abstract or concrete) value equals the input datum.
    """

    def __init__(self, aut: RegisterAutomaton):
        check_validated(aut)
        compiled = aut.compiled
        self.k = aut.registers
        self.n_locations = len(aut.locations)
        self.n_letters = len(aut.alphabet)
        self.table = compiled.table
        self.firing = compiled.firing
        self.fire = compiled.fire
        self._clear_ids()

    def _clear_ids(self) -> None:
        # The bounded searches' interned configurations: id_of maps a
        # config to its id, config_of an id back to its config.  dirty_mask
        # holds the ids with a symbolic value, location_masks[loc] the ids
        # at loc; both grow as ids are interned.
        self.id_of = {}
        self.config_of = []
        self.dirty_mask = 0
        self.location_masks = [0] * self.n_locations
        # (letter, input, fresh?) -> {id: mask of its successors' ids}; the
        # fresh flag matters because a fresh input resolves symbolic blocks
        # and a seen one never does.
        self.mask_memo = {}
        self.mask_entries = 0

    # -- concrete ----------------------------------------------------------

    def post_config(self, config, letter: int, datum: int) -> list:
        loc, values = config
        sigma = 0
        for j, v in enumerate(values):
            if v == datum:
                sigma |= 1 << j
        out = []
        for mask, update, target in self.table[loc][letter]:
            if mask >> sigma & 1:
                nv = list(values)
                for r in update:
                    nv[r] = datum
                out.append((target, tuple(nv)))
        return out

    def post_set(self, configs, word) -> frozenset:
        """The configurations reached from the concrete `configs` along the
        data word `word`, every datum kept."""
        return frozenset(_ungrouped(self.walk(_grouped(configs), word, {})))

    def walk(self, groups: dict, word, last: dict) -> dict:
        """The grouped concrete set reached from `groups`, a dict from each
        valuation to the mask of the locations holding it, along the data
        word `word`: the one concrete set step.  Each valuation's sigma is
        computed once, its location mask's transitions come from the firing
        table, and each update is written once for all the targets it
        reaches.  `last` maps a datum to the last position of `word` that
        reads it; at that position sigma reads the datum, then DEAD takes
        its place in the registers that held it and in those the step
        writes (see the module docstring).  An empty `last` keeps every
        datum."""
        firing, fire = self.firing, self.fire
        for position, (letter, datum) in enumerate(word):
            dies = last.get(datum) == position
            written = DEAD if dies else datum
            out = {}
            for values, locs in groups.items():
                sigma = 0
                if datum in values:  # a datum no register holds needs no scan
                    if dies:  # sigma reads the datum, then the valuation forgets it
                        nv = list(values)
                        for j, v in enumerate(values):
                            if v == datum:
                                sigma |= 1 << j
                                nv[j] = DEAD
                        values = tuple(nv)
                    else:
                        for j, v in enumerate(values):
                            if v == datum:
                                sigma |= 1 << j
                key = (letter, sigma, locs)
                fires = firing.get(key)
                if fires is None:
                    fires = fire(key)
                for update, targets in fires:
                    if update:
                        nv = list(values)
                        for r in update:
                            nv[r] = written
                        nv = tuple(nv)
                    else:
                        nv = values
                    out[nv] = out.get(nv, 0) | targets
            groups = out
        return groups

    # -- abstract ----------------------------------------------------------

    def abstract_initial(self) -> AbstractConfigSet:
        return AbstractConfigSet.from_groups(
            dict.fromkeys(INITIAL_VALUATIONS[self.k], (1 << self.n_locations) - 1), 0)

    def abstract_post(self, aset: AbstractConfigSet, letter: int, choice: int) -> AbstractConfigSet:
        m = aset.word_data_count
        fresh = choice == FRESH
        if fresh:
            inp = m
            new_m = m + 1
        else:
            if not 0 <= choice < m:
                raise StructuralError(f"Seen({choice}) with only {m} word data introduced")
            inp = choice
            new_m = m
        # grouped by valuation, as in walk; a fresh input's branches
        # come from the split table and each write from the write table
        firing, fire = self.firing, self.fire
        out = {}
        for values, locs in aset.groups.items():
            if fresh:
                variants = _SPLITS.get((values, inp)) or _fresh_split(values, inp)
            else:
                sigma = 0
                for j, v in enumerate(values):
                    if v == inp:
                        sigma |= 1 << j
                variants = ((values, sigma),)
            for vals, sigma in variants:
                key = (letter, sigma, locs)
                fires = firing.get(key)
                if fires is None:
                    fires = fire(key)
                for update, targets in fires:
                    if update:
                        key = (vals, update, inp)
                        nv = _WRITES.get(key)
                        if nv is None:
                            nv = _write(key)
                    else:
                        nv = vals
                    out[nv] = out.get(nv, 0) | targets
        return AbstractConfigSet.from_groups(out, new_m)

    def _abstract_successors(self, config, letter: int, inp: int, fresh: bool) -> set:
        """The canonical successors of one canonical abstract configuration
        on input `inp`, for the mask memo: the automaton-free split and
        writes come from the process-wide tables, and only the scan of the
        cell is this automaton's own."""
        loc, values = config
        if fresh:
            variants = _SPLITS.get((values, inp)) or _fresh_split(values, inp)
        else:
            # A seen input splits nothing; its sigma costs less to compute
            # than to look up.
            sigma = 0
            for j, v in enumerate(values):
                if v == inp:
                    sigma |= 1 << j
            variants = ((values, sigma),)
        out = set()
        cell = self.table[loc][letter]
        for vals, sigma in variants:
            for mask, update, target in cell:
                if mask >> sigma & 1:
                    if update:
                        key = (vals, update, inp)
                        nv = _WRITES.get(key)
                        if nv is None:
                            nv = _write(key)
                        out.add((target, nv))
                    else:
                        out.add((target, vals))
        return out

    def abstract_run(self, cword) -> AbstractConfigSet:
        aset = self.abstract_initial()
        for letter, choice in cword:
            aset = self.abstract_post(aset, letter, choice)
        return aset

    # -- interned bitmask sets -----------------------------------------------

    def mask_root(self, configs) -> int:
        """The mask of `configs` as the root of a new search.  A search holds
        ids from its root to its end, so this is the one place the intern
        table may be cleared: when it holds more than SUCCESSOR_MEMO_CAP
        configs."""
        if len(self.config_of) > SUCCESSOR_MEMO_CAP:
            self._clear_ids()
        id_of = self.id_of
        mask = 0
        for config in configs:
            i = id_of.get(config)
            if i is None:
                i = self._new_id(config)
            mask |= 1 << i
        return mask

    def _new_id(self, config) -> int:
        """Intern `config`, which has no id yet, and return its new id."""
        i = self.id_of[config] = len(self.config_of)
        self.config_of.append(config)
        loc, values = config
        bit = 1 << i
        self.location_masks[loc] |= bit
        if values and min(values) < 0:
            self.dirty_mask |= bit
        return i

    def mask_synchronized(self, mask: int) -> bool:
        """is_synchronized on a mask: exactly one id, and a clean one."""
        return mask != 0 and mask & (mask - 1) == 0 and not mask & self.dirty_mask

    def mask_post(self, mask: int, m: int, letter: int, choice: int,
                  goal: Optional[Callable] = None) -> int:
        """abstract_post on the set `mask` of interned ids holding m word data.

        With a `goal` closed under nonempty subsets, the union stops once it
        is nonempty and fails `goal`, and that partial set is returned: the
        full successor fails `goal` too.  A successor that meets `goal` is
        never cut short."""
        fresh = choice == FRESH
        inp = m if fresh else choice
        step = (letter, inp, fresh)
        memo = self.mask_memo.get(step)
        if memo is None:
            memo = self.mask_memo[step] = {}
        id_of = self.id_of
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            i = low.bit_length() - 1
            succ = memo.get(i)
            if succ is None:
                succ = 0
                for config in self._abstract_successors(self.config_of[i], letter, inp,
                                                        fresh):
                    j = id_of.get(config)
                    if j is None:
                        j = self._new_id(config)
                    succ |= 1 << j
                memo[i] = succ
                self.mask_entries += 1
            out |= succ
            if goal is not None and out and not goal(out):
                break
        if self.mask_entries > SUCCESSOR_MEMO_CAP:
            self.mask_memo.clear()
            self.mask_entries = 0
        return out


def _grouped(configs) -> dict:
    """`configs` as a dict from each valuation to the mask of the locations
    holding it."""
    groups = {}
    for loc, values in configs:
        groups[values] = groups.get(values, 0) | 1 << loc
    return groups


def _ungrouped(groups: dict) -> list:
    """The configurations of a dict from valuation to location mask."""
    out = []
    for values, locs in groups.items():
        while locs:
            low = locs & -locs
            locs ^= low
            out.append((low.bit_length() - 1, values))
    return out


def engine_for(aut: RegisterAutomaton) -> Engine:
    """The one Engine of `aut`, built on first use and kept in the instance's
    own __dict__, as `compiled` is.  It lives exactly as long as the
    automaton does, and its memo, intern table and search state are never
    shared: automata parsed from one text share their compiled form, and
    with it the firing table that single walks read, but each builds its
    own Engine."""
    engine = aut.__dict__.get("_engine")
    if engine is None:
        engine = aut.__dict__["_engine"] = Engine(aut)
    return engine


def bfs_path(parents: dict, node):
    """(root, steps) of a breadth-first search's `parents` map, in which each
    reached node maps to (its parent, the step taken) and each root to None."""
    steps = []
    while parents[node] is not None:
        node, step = parents[node]
        steps.append(step)
    steps.reverse()
    return node, steps


# ---------------------------------------------------------------------------
# Breadth-first search over abstract configuration sets

DEFAULT_MAX_NODES = 1_000_000


class _Exhausted(Exception):
    """A search spent its node budget."""


class _Budget:
    """A node budget; None means DEFAULT_MAX_NODES.
    `tick` counts one node and is False once more than `limit` are counted;
    `queued` counts the sets a search adds to its dedup table, and `pruned`
    those it drops by subsumption."""

    __slots__ = ("limit", "spent", "queued", "pruned")

    def __init__(self, max_nodes: Optional[int]):
        if max_nodes is None:
            max_nodes = DEFAULT_MAX_NODES
        if max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {max_nodes}")
        self.limit = max_nodes
        self.spent = 0
        self.queued = 0
        self.pruned = 0

    def tick(self) -> bool:
        self.spent += 1
        return self.spent <= self.limit


def _moves(n_letters: int, m: int, max_data: Optional[int]):
    """The (letter, choice) moves from a set holding m word data."""
    choices = list(range(m))
    if max_data is None or m < max_data:
        choices.append(FRESH)
    return [(letter, choice) for letter in range(n_letters) for choice in choices]


def _subsumed(buckets: dict, mask: int) -> bool:
    """Whether some kept mask is a subset of `mask`.  `buckets` maps the
    lowest bit of each kept mask to the kept masks with that lowest bit, so
    only the buckets of `mask`'s own bits can hold a subset."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        for kept in buckets.get(low, ()):
            if not kept & ~mask:
                return True
    return False


def _search_bfs(eng: Engine, root: int, data: int, goal: Callable,
                max_length: Optional[int], max_data: Optional[int],
                budget: _Budget) -> Optional[list]:
    """The lexicographically least shortest nonempty move path from `root`,
    a mask of `eng`'s interned ids holding `data` word data, to a mask
    satisfying `goal`, of at most `max_length` moves and `max_data` word
    data (None: unbounded), or None when there is none.

    Each step is `eng.mask_post`.  Moves are expanded in (letter, choice)
    order, first in first out, and each (mask, word data) node enters the
    dedup table once (counted in `budget.queued`); every expanded move ticks
    `budget`, and the search raises _Exhausted once the budget is spent.

    A new node that fails `goal` is dropped (counted in `budget.pruned`)
    when the search already kept a node with the same word data count whose
    mask is a subset of its mask.  `mask_post` is monotone under inclusion,
    and `goal` must be closed under nonempty subsets, so this is exact: the
    kept node was found no later in breadth-first order, so every path from
    the dropped one has a path from the kept one that is no longer and no
    greater.  Nodes at depth `max_length` are never expanded, so the last
    layer's moves pass `goal` to `mask_post`, which may stop at a nonempty
    partial mask that fails `goal`; such a node is dropped without entering
    the dedup table, and only a witness enters it.
    """
    start = (root, data)
    parents = {start: None}
    budget.queued += 1
    kept = {data: {root & -root: [root]}}  # word data count -> {lowest bit: kept masks}
    moves = {}  # word data count -> its moves
    queue = deque([(start, 0)] if max_length is None or max_length > 0 else ())
    while queue:
        node, depth = queue.popleft()
        last = max_length is not None and depth + 1 >= max_length
        s, m = node
        node_moves = moves.get(m)
        if node_moves is None:
            node_moves = moves[m] = _moves(eng.n_letters, m, max_data)
        for letter, choice in node_moves:
            if not budget.tick():
                raise _Exhausted
            nxt = eng.mask_post(s, m, letter, choice, goal if last else None)
            if last and not goal(nxt):
                continue  # a last-layer mask that is no witness is not stored
            key = (nxt, m + 1 if choice == FRESH else m)
            if key in parents:
                continue
            parents[key] = (node, (letter, choice))
            budget.queued += 1
            if goal(nxt):
                return bfs_path(parents, key)[1]
            buckets = kept.setdefault(key[1], {})
            if _subsumed(buckets, nxt):
                budget.pruned += 1
                continue
            buckets.setdefault(nxt & -nxt, []).append(nxt)
            queue.append((key, depth + 1))
    return None


# ---------------------------------------------------------------------------
# Module-level conveniences


def post_config(aut: RegisterAutomaton, config, inp) -> set:
    check_configs(aut, (config,))
    check_letters(aut, (inp,))
    letter, datum = inp
    return set(engine_for(aut).post_config(config, letter, datum))


def post_set(aut: RegisterAutomaton, configs, word) -> frozenset:
    configs = tuple(configs)
    word = tuple(word)
    check_configs(aut, configs)
    check_letters(aut, word)
    return engine_for(aut).post_set(configs, word)


def abstract_initial(aut: RegisterAutomaton) -> AbstractConfigSet:
    return engine_for(aut).abstract_initial()


def abstract_post(aut: RegisterAutomaton, aset: AbstractConfigSet, inp) -> AbstractConfigSet:
    check_configs(aut, aset.configs)
    check_letters(aut, (inp,))
    letter, choice = inp
    return engine_for(aut).abstract_post(aset, letter, choice)


def check_configs(aut: RegisterAutomaton, configs) -> None:
    """Raise ValueError at the first configuration of `configs` whose
    location is outside range(len(aut.locations)) or whose valuation is not
    k long: a step reads a location's row by index and its bit by shift, so
    such a configuration would silently step from another location or
    register count, or fail with an unrelated error."""
    n, k = len(aut.locations), aut.registers
    for config in configs:
        loc, values = config
        if not 0 <= loc < n or len(values) != k:
            raise ValueError(f"configuration {config} needs a location in range({n}) "
                             f"and {k} register value(s)")


def check_letters(aut: RegisterAutomaton, word) -> None:
    """Raise ValueError at the first letter id of `word` (pairs of letter and
    datum or choice) outside range(len(aut.alphabet)): cell rows are lists,
    so a negative id would silently read another letter's cell."""
    n = len(aut.alphabet)
    for position, (letter, _) in enumerate(word):
        if not 0 <= letter < n:
            raise ValueError(f"letter id {letter} at position {position} is not in "
                             f"range({n})")


def abstract_run(aut: RegisterAutomaton, cword) -> AbstractConfigSet:
    cword = tuple(cword)
    check_letters(aut, cword)
    return engine_for(aut).abstract_run(cword)
