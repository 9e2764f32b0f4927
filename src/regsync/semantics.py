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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ra import RegisterAutomaton, StructuralError

FRESH = -1


def seen(i: int) -> int:
    if i < 0:
        raise ValueError("Seen index must be >= 0")
    return i


def sym(block: int) -> int:
    return -1 - block


def is_sym(value: int) -> bool:
    return value < 0


def sym_block(value: int) -> int:
    return -1 - value


def word_data(word) -> list:
    """Distinct data of a data word, in order of first occurrence."""
    out = []
    for _, d in word:
        if d not in out:
            out.append(d)
    return out


def data_efficiency(word) -> int:
    return len(word_data(word))


def choice_of_word(word) -> tuple:
    """The canonical choice word of a data word (first-occurrence abstraction)."""
    order = []
    out = []
    for letter, d in word:
        if d in order:
            out.append((letter, order.index(d)))
        else:
            order.append(d)
            out.append((letter, FRESH))
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


@dataclass(frozen=True)
class AbstractConfigSet:
    configs: tuple  # sorted tuple of (location, values-tuple)
    word_data_count: int

    def __len__(self) -> int:
        return len(self.configs)


def _value_key(v: int):
    return (0, v) if v >= 0 else (1, -1 - v)


def _config_key(config):
    loc, values = config
    return (loc, tuple(_value_key(v) for v in values))


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


def canonicalize(aset: AbstractConfigSet) -> AbstractConfigSet:
    """Canonical form: per-config Sym renumbering, dedup, fixed total order."""
    configs = {(loc, _canon_values(values)) for loc, values in aset.configs}
    return AbstractConfigSet(tuple(sorted(configs, key=_config_key)), aset.word_data_count)


def is_synchronized(aset: AbstractConfigSet) -> bool:
    """Exactly one configuration and no symbolic value in it."""
    if len(aset.configs) != 1:
        return False
    _, values = aset.configs[0]
    return all(v >= 0 for v in values)


def _partitions(k: int):
    """All set partitions of range(k) as restricted-growth strings."""
    def rec(prefix, top):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for b in range(top + 2):
            yield from rec(prefix + [b], max(top, b))
    if k == 0:
        yield ()
        return
    yield from rec([0], 0)


# ---------------------------------------------------------------------------
# Compiled engine


class Engine:
    """Per-automaton tables for fast concrete and abstract successor steps.

    The table is the automaton's compiled cell table: guards as bitmasks over
    atom assignments, where an input's assignment is the bitmask of registers
    whose (abstract or concrete) value equals the input datum.
    """

    def __init__(self, aut: RegisterAutomaton):
        compiled = aut.compiled
        if compiled.diagnostics:
            raise StructuralError("; ".join(d.message for d in compiled.diagnostics))
        self.k = aut.registers
        self.n_locations = len(aut.locations)
        self.n_letters = len(aut.alphabet)
        self.table = compiled.table

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

    def post_set_step(self, configs, letter: int, datum: int) -> frozenset:
        out = set()
        for config in configs:
            out.update(self.post_config(config, letter, datum))
        return frozenset(out)

    def post_set(self, configs, word) -> frozenset:
        current = frozenset(configs)
        for letter, datum in word:
            current = self.post_set_step(current, letter, datum)
        return current

    # -- abstract ----------------------------------------------------------

    def abstract_initial(self) -> AbstractConfigSet:
        configs = []
        for loc in range(self.n_locations):
            for rgs in _partitions(self.k):
                configs.append((loc, tuple(-1 - b for b in rgs)))
        return AbstractConfigSet(tuple(sorted(configs, key=_config_key)), 0)

    def abstract_post(self, aset: AbstractConfigSet, letter: int, choice: int) -> AbstractConfigSet:
        m = aset.word_data_count
        if choice == FRESH:
            inp = m
            new_m = m + 1
        else:
            if not 0 <= choice < m:
                raise StructuralError(f"Seen({choice}) with only {m} word data introduced")
            inp = choice
            new_m = m
        out = set()
        for loc, values in aset.configs:
            if choice == FRESH:
                # Branch (a): the fresh datum differs from every Sym block;
                # branches (b): it resolves exactly one block to Word(m).
                variants = [values]
                seen_blocks = []
                for v in values:
                    if v < 0 and v not in seen_blocks:
                        seen_blocks.append(v)
                for b in seen_blocks:
                    variants.append(tuple(inp if v == b else v for v in values))
            else:
                variants = [values]
            for vals in variants:
                sigma = 0
                for j, v in enumerate(vals):
                    if v == inp:
                        sigma |= 1 << j
                for mask, update, target in self.table[loc][letter]:
                    if mask >> sigma & 1:
                        nv = list(vals)
                        for r in update:
                            nv[r] = inp
                        out.add((target, _canon_values(nv)))
        return AbstractConfigSet(tuple(sorted(out, key=_config_key)), new_m)

    def abstract_run(self, cword, start: Optional[AbstractConfigSet] = None) -> AbstractConfigSet:
        aset = self.abstract_initial() if start is None else start
        for letter, choice in cword:
            aset = self.abstract_post(aset, letter, choice)
        return aset


def engine_for(aut: RegisterAutomaton) -> Engine:
    """The one Engine of `aut`, built on first use and kept on its compiled
    form, so it lives exactly as long as the automaton does."""
    compiled = aut.compiled
    if compiled.engine is None:
        compiled.engine = Engine(aut)
    return compiled.engine


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
# Module-level conveniences


def post_config(aut: RegisterAutomaton, config, inp) -> set:
    letter, datum = inp
    return set(engine_for(aut).post_config(config, letter, datum))


def post_set(aut: RegisterAutomaton, configs, word) -> frozenset:
    return engine_for(aut).post_set(configs, word)


def abstract_initial(aut: RegisterAutomaton) -> AbstractConfigSet:
    return engine_for(aut).abstract_initial()


def abstract_post(aut: RegisterAutomaton, aset: AbstractConfigSet, inp) -> AbstractConfigSet:
    letter, choice = inp
    return engine_for(aut).abstract_post(aset, letter, choice)


def abstract_run(aut: RegisterAutomaton, cword) -> AbstractConfigSet:
    return engine_for(aut).abstract_run(cword)
