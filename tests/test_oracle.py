import itertools
import random

import pytest

from regsync.gadgets import gen_chain_dra, gen_tower_nra
from regsync.oracle import (
    OracleParams,
    oracle_is_synchronizing,
    oracle_min_data_efficiency,
    oracle_min_length,
    oracle_post,
    oracle_search,
)
from regsync.ra import TRUE, RegisterAutomaton, mk_transition
from regsync.semantics import DEFAULT_MAX_NODES
from helpers import oracle_search_concrete, random_complete_automaton


def full_update_singleton():
    return RegisterAutomaton("one", ("q",), 1, ("a",),
                             (mk_transition(0, 0, TRUE, {0}, 0),))


class TestIsSynchronizing:
    def test_chain2_three_distinct(self):
        aut = gen_chain_dra(2)
        assert oracle_is_synchronizing(aut, ((0, 1), (0, 2), (0, 3)))

    def test_empty_word_never_synchronizes_nontrivial(self):
        aut = gen_chain_dra(1)
        assert not oracle_is_synchronizing(aut, ())

    def test_fig4_word(self, fig4):
        a, b = fig4.letter_index("a"), fig4.letter_index("b")
        assert oracle_is_synchronizing(fig4, ((a, 1), (b, 2), (b, 3)))

    def test_fig1_residual_configuration(self):
        aut = gen_chain_dra(3)
        word = ((0, 1), (0, 2), (0, 3), (0, 4))
        post = oracle_post(aut, word)
        assert post == frozenset({(aut.location_index("synch"), (4, 4, 4))})

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_empty_word_post_is_every_start_configuration(self, k):
        # L x Z^k with Z = k fresh data, as oracle_search starts from
        aut = RegisterAutomaton("two", ("p", "q"), k, ("a",),
                                tuple(mk_transition(i, 0, TRUE, range(k), i) for i in (0, 1)))
        expected = {(loc, values) for loc in (0, 1)
                    for values in itertools.product(range(k), repeat=k)}
        assert oracle_post(aut, ()) == expected
        assert oracle_is_synchronizing(aut, ()) is False

    def test_bijection_invariance(self):
        rng = random.Random(3)
        for _ in range(30):
            aut = random_complete_automaton(rng, rng.randint(1, 3), rng.randint(0, 2),
                                            rng.randint(1, 2))
            word = tuple((rng.randrange(len(aut.alphabet)), rng.randrange(3))
                         for _ in range(rng.randint(1, 4)))
            image = rng.sample(range(50, 90), 3)
            renamed = tuple((a, image[d]) for a, d in word)
            assert oracle_is_synchronizing(aut, word) == oracle_is_synchronizing(aut, renamed)


class TestMinima:
    def test_chain2_min_data(self):
        assert oracle_min_data_efficiency(gen_chain_dra(2), OracleParams(4, 4)) == 3

    def test_tower1_min_data(self):
        assert oracle_min_data_efficiency(gen_tower_nra(1), OracleParams(6, 3)) == 2

    def test_single_location_full_update(self):
        aut = full_update_singleton()
        assert oracle_min_data_efficiency(aut, OracleParams(2, 2)) == 1
        assert oracle_min_length(aut, OracleParams(2, 2)) == 1

    def test_fig4_min_length(self, fig4):
        assert oracle_min_length(fig4, OracleParams(4, 4)) == 3

    def test_chain2_min_length(self):
        assert oracle_min_length(gen_chain_dra(2), OracleParams(4, 4)) == 3

    def test_none_within_bound(self):
        assert oracle_min_length(gen_chain_dra(2), OracleParams(2, 4)) is None
        assert oracle_min_data_efficiency(gen_chain_dra(2), OracleParams(2, 4)) is None

    def test_saturation_detects_never(self):
        # a permutation-style automaton that never synchronizes
        aut = RegisterAutomaton(
            "swap", ("q0", "q1"), 0, ("a",),
            (mk_transition(0, 0, TRUE, (), 1), mk_transition(1, 0, TRUE, (), 0)))
        result = oracle_search(aut, OracleParams(50, 1))
        assert result.found_length is None
        assert result.saturated

    @pytest.mark.parametrize("k, n_letters, seed", [(1, 1, 9), (2, 1, 10), (2, 2, 10)])
    def test_concrete_enumeration_cross_check(self, k, n_letters, seed):
        rng = random.Random(seed)
        for _ in range(10):
            aut = random_complete_automaton(rng, 2, k, n_letters, deterministic=True)
            fast = oracle_search(aut, OracleParams(3, 2))
            slow = oracle_search_concrete(aut, 3, 2)
            assert fast.found_length == slow.found_length

    def test_search_witness_is_synchronizing(self, fig4):
        result = oracle_search(fig4, OracleParams(3, 3))
        assert result.found_length == 3
        assert oracle_is_synchronizing(fig4, result.witness)


class TestParams:
    @pytest.mark.parametrize("field, args, kwargs", [
        ("max_length", (-1, 2), {}),
        ("data_pool_size", (2, -1), {}),
        ("max_nodes", (2, 2), {"max_nodes": -1}),
    ])
    def test_negative_bound_is_a_value_error(self, field, args, kwargs):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
            OracleParams(*args, **kwargs)

    def test_zero_bounds_are_allowed(self):
        params = OracleParams(0, 0, max_nodes=0)
        assert oracle_min_length(full_update_singleton(), params) is None

    def test_node_budget_is_keyword_only(self):
        # the extra initial data are always k, so no third positional
        # argument is accepted; it must not silently become the node budget
        with pytest.raises(TypeError):
            OracleParams(2, 2, 1)

    def test_default_node_budget_is_the_searches_default(self):
        # `regsync oracle` without --max-nodes and a library call share one budget
        assert OracleParams(1, 1).max_nodes == DEFAULT_MAX_NODES
