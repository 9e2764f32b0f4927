"""The one node budget: every search ticks `semantics._Budget`, which raises
InconclusiveError once it has counted more than `max_nodes` nodes.  The DRA
searches and the oracle let it escape; the NRA entry points return
BudgetExhausted with the same count."""

import pathlib

import pytest

import regsync
from regsync import dra, semantics
from regsync.dra import pairwise_merge_word, shrink_word, synchronizing_word_dra
from regsync.dsl import parse_automaton
from regsync.gadgets import gen_chain_dra, reduce_sync_to_nonuniv
from regsync.nra import (
    BudgetExhausted,
    SearchBudget,
    bounded_sync_search,
    bounded_universality_witness,
    nonemptiness_witness,
)
from regsync.oracle import OracleParams, oracle_search
from regsync.ra import TRUE, ResourceCapError
from regsync.semantics import InconclusiveError, _Budget, bfs_path
from helpers import automaton

DATA = pathlib.Path(__file__).parent / "data"
BUDGETS = range(6)


def fig4():
    return parse_automaton((DATA / "fig4.ra").read_text())


def merge_heavy():
    return parse_automaton((DATA / "merge_heavy.ra").read_text())


def cycle():
    # the pair (q0, q1) visits three orbits and never merges
    return automaton("cycle", ["q0", "q1", "q2"], 0, ["a"],
                     [("q0", "a", TRUE, (), "q1"), ("q1", "a", TRUE, (), "q2"),
                      ("q2", "a", TRUE, (), "q0")])


TWO_LOCATIONS = ("automaton e\nregisters 1\nalphabet a\nlocation p initial\n"
                 "location q accepting\ntrans p -> q on a when true set r0\n")

# name -> (the search at a node budget, the phase its budget names, the
# budgets to try)
RAISING = {
    "shrink": (lambda b: shrink_word(gen_chain_dra(2), b), "shrink", BUDGETS),
    "merge": (lambda b: pairwise_merge_word(cycle(), (0, ()), (1, ()), [0], b), "merge",
              BUDGETS),
    # its shrink needs 11 to 20 nodes, its merges a few hundred
    "sync-dra merge": (lambda b: synchronizing_word_dra(merge_heavy(), b), "merge",
                       range(100, 106)),
    "oracle": (lambda b: oracle_search(gen_chain_dra(3), OracleParams(4, 4, max_nodes=b)),
               "oracle", BUDGETS),
}
RETURNING = {
    "sync-bounded": lambda b: bounded_sync_search(fig4(), SearchBudget(3, max_nodes=b)),
    "universality": lambda b: bounded_universality_witness(
        reduce_sync_to_nonuniv(fig4()), 3, max_nodes=b),
    "emptiness": lambda b: nonemptiness_witness(parse_automaton(TWO_LOCATIONS), 3, max_nodes=b),
}


def test_inconclusive_is_a_resource_cap():
    assert issubclass(InconclusiveError, ResourceCapError)
    assert dra.InconclusiveError is regsync.InconclusiveError is InconclusiveError


@pytest.mark.parametrize("name", sorted(RAISING))
def test_raising_searches_spend_one_node_past_the_budget(name):
    search, phase, budgets = RAISING[name]
    exhausted = 0
    for b in budgets:
        try:
            search(b)
        except InconclusiveError as err:
            exhausted += 1
            assert err.phase == phase and err.explored == b + 1
            assert str(err) == f"{phase} search exceeded {b} nodes"
    assert exhausted


@pytest.mark.parametrize("name", sorted(RETURNING))
def test_nra_searches_return_what_the_budget_spent(name):
    exhausted = 0
    for b in BUDGETS:
        out = RETURNING[name](b)
        if isinstance(out, BudgetExhausted):
            exhausted += 1
            assert out.explored == b + 1
        else:
            assert out.explored <= b
    assert exhausted


def test_budget_raises_on_the_tick_past_its_limit():
    budget = _Budget(2, "merge")
    budget.tick()
    budget.tick()
    with pytest.raises(InconclusiveError, match="merge search exceeded 2 nodes") as info:
        budget.tick()
    assert info.value.explored == budget.spent == 3 and info.value.phase == "merge"
    assert _Budget(None, "shrink").limit == semantics.DEFAULT_MAX_NODES
    with pytest.raises(ValueError, match="max_nodes must be >= 0"):
        _Budget(-1, "search")


def test_bfs_path_is_the_tuple_of_steps():
    parents = {"r": None, "x": ("r", "a"), "y": ("x", "b")}
    assert bfs_path(parents, "y") == ("a", "b")
    assert bfs_path(parents, "r") == ()
