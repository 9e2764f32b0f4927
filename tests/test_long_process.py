"""A long-lived process keeps its process-wide tables bounded: replaying
the same queries adds no objects once the first pass has filled them."""

import gc
import random

from regsync import dsl, ra, semantics
from regsync.dra import InconclusiveError, synchronizing_word_dra
from regsync.dsl import parse_automaton, serialize_automaton
from regsync.nra import (
    SearchBudget,
    accepts,
    bounded_sync_search,
    bounded_universality_witness,
    nonemptiness_witness,
)
from regsync.semantics import FRESH, abstract_run
from helpers import random_complete_automaton

PASSES = 4


def catalog() -> list:
    """(DSL text, deterministic?) for a few small automata, k = 0..3."""
    rng = random.Random(83)
    out = []
    for k in range(4):
        for deterministic in (False, True):
            aut = random_complete_automaton(rng, rng.randint(2, 4), k, 2,
                                            deterministic=deterministic,
                                            acceptance=not deterministic)
            out.append((serialize_automaton(aut), deterministic))
    return out


def replay(texts) -> list:
    """One pass of queries over the catalog, through the public API; the
    compiled forms the pass used."""
    compiled = []
    for text, deterministic in texts:
        aut = parse_automaton(text)
        compiled.append(aut.compiled)
        abstract_run(aut, ((0, FRESH), (1, FRESH), (0, 0)))
        bounded_sync_search(aut, SearchBudget(3, max_nodes=2_000))
        if deterministic:
            try:
                synchronizing_word_dra(aut, max_nodes=2_000)
            except InconclusiveError:
                pass
            continue
        for word in ((), ((0, 1),), ((0, 1), (1, 2), (0, 1), (1, -1), (0, 3))):
            accepts(aut, word)
        bounded_universality_witness(aut, 3, max_nodes=2_000)
        nonemptiness_witness(aut, 3, max_nodes=2_000)
    return compiled


def test_tables_stay_bounded(empty_guard_table, empty_kernel_tables):
    texts = catalog()
    objects = []
    for _ in range(PASSES):
        compiled = replay(texts)
        assert len(dsl._DOCUMENTS) <= dsl.DOCUMENT_TABLE_CAP
        assert len(dsl._GUARDS) <= dsl.GUARD_TABLE_CAP
        for table in (semantics._SPLITS, semantics._WRITES, semantics._WRITTEN):
            assert len(table) <= semantics.KERNEL_TABLE_CAP
        assert all(len(c.firing) <= ra.FIRING_TABLE_CAP for c in compiled)
        del compiled
        # a collection untracks a tuple once every item is untracked, so
        # nested tuples of ints need one collection per level
        for _ in range(4):
            gc.collect()
        objects.append(len(gc.get_objects()))
    assert objects[1] == objects[3], objects
