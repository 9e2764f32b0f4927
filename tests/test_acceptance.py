"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Exhaustive grids are
enumerated where tractable and sampled (seeded) where the full product space
is astronomically large; every sampled instance is still held to 100%
agreement.
"""

import itertools
import random

import regsync as rs
from regsync.dra import synchronizing_word_dra
from regsync.gadgets import (
    ackermann,
    gen_chain_dra,
    gen_counter_nra,
    gen_tower_nra,
    reduce_nonempty_to_sync_dra,
    reduce_nonuniv_to_sync,
    reduce_sync_to_nonuniv,
)
from regsync.nra import (
    NoneWithinBound,
    SearchBudget,
    Witness,
    accepts,
    bounded_sync_search,
    bounded_universality_witness,
    nonemptiness_witness,
)
from regsync.oracle import OracleParams, oracle_is_synchronizing, oracle_post, oracle_search
from regsync.ra import Acceptance, RegisterAutomaton, eval_constraint
from regsync.semantics import (
    FRESH,
    Engine,
    abstract_run,
    is_synchronized,
    word_data,
)
from helpers import enumerate_1dras, random_complete_automaton, random_guard


def report(criterion: int, summary: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {summary}", flush=True)


# ---------------------------------------------------------------------------
# 1. Chain family: synchronizing needs n+1 distinct data


def test_criterion_1_chain_family():
    efficiencies = {}
    for n in (1, 2, 3, 4):
        aut = gen_chain_dra(n)
        witness = synchronizing_word_dra(aut)
        assert witness is not None, f"chain({n}) must synchronize"
        assert oracle_is_synchronizing(aut, witness), f"oracle rejects chain({n}) witness"
        if n <= 3:
            got = rs.oracle_min_data_efficiency(aut, OracleParams(n + 1, n + 1))
            assert got == n + 1, f"chain({n}) min data efficiency {got} != {n + 1}"
            efficiencies[n] = got
    report(1, f"chain 1..4 witnesses oracle-confirmed; min data {efficiencies} = n+1")


# ---------------------------------------------------------------------------
# 2. Fig 1 witness, exact


def test_criterion_2_fig1_witness():
    aut = gen_chain_dra(3)
    x1, x2, x3, x4 = 1, 2, 3, 4
    word = ((0, x1), (0, x2), (0, x3), (0, x4))
    post = oracle_post(aut, word)
    expected = frozenset({(aut.location_index("synch"), (x4, x4, x4))})
    assert post == expected
    report(2, "(a,x1)(a,x2)(a,x3)(a,x4) lands exactly at (synch,(x4,x4,x4))")


# ---------------------------------------------------------------------------
# 3. 2k+1 data suffice for deterministic automata


def test_criterion_3_data_efficiency_bound():
    rng = random.Random(20260810)
    checked = 0
    attempts = 0
    while checked < 300:
        attempts += 1
        assert attempts < 20000, "random DRA generator starved"
        k = rng.randint(0, 2)
        aut = random_complete_automaton(rng, rng.randint(1, 4), k,
                                        rng.randint(1, 2), deterministic=True)
        witness = synchronizing_word_dra(aut)
        if witness is None:
            continue
        bound = 2 * aut.registers + 1
        assert len(word_data(witness)) <= bound, (aut, witness)
        # the oracle confirms a witness within the bound exists
        assert oracle_is_synchronizing(aut, witness)
        checked += 1
    report(3, f"300 synchronizable DRAs: all witnesses within 2k+1 data "
              f"({attempts} sampled)")


# ---------------------------------------------------------------------------
# 4. 1-register decision agrees with the pipeline and the oracle


def _oracle_decides_dra(aut) -> bool:
    result = oracle_search(aut, OracleParams(10**6, 2 * aut.registers + 1))
    assert result.found_length is not None or result.saturated
    return result.found_length is not None


def _criterion4_check(aut) -> None:
    decided = rs.dra1_decide(aut)
    constructed = synchronizing_word_dra(aut)
    assert decided == (constructed is not None), aut
    assert decided == _oracle_decides_dra(aut), aut


def test_criterion_4_one_register_equivalence():
    exhaustive = 0
    for n_loc, n_let in ((1, 1), (1, 2), (2, 1)):
        for aut in enumerate_1dras(n_loc, n_let):
            _criterion4_check(aut)
            exhaustive += 1
    rng = random.Random(41)
    sampled = 0
    for n_loc, n_let, count in ((2, 2, 4000), (3, 1, 3000), (3, 2, 4000)):
        for _ in range(count):
            aut = random_complete_automaton(rng, n_loc, 1, n_let, deterministic=True)
            _criterion4_check(aut)
            sampled += 1
    report(4, f"dra1_decide == pipeline == oracle on {exhaustive} exhaustive "
              f"+ {sampled} sampled 1-DRAs")


# ---------------------------------------------------------------------------
# 5. Counter family: a datum must repeat 2^n times


def _all_witness_choice_words(aut, length):
    """Every choice word of exactly `length` whose abstract run synchronizes."""
    eng = Engine(aut)
    root = eng.abstract_initial()
    layers = [{root: []}]
    for depth in range(length):
        nxt = {}
        for aset in layers[depth]:
            moves = list(range(aset.word_data_count)) + [FRESH]
            for letter in range(eng.n_letters):
                for choice in moves:
                    child = eng.abstract_post(aset, letter, choice)
                    nxt.setdefault(child, []).append((aset, (letter, choice)))
        layers.append(nxt)

    def unwind(depth, aset):
        if depth == 0:
            yield ()
            return
        for prev, move in layers[depth][aset]:
            for prefix in unwind(depth - 1, prev):
                yield prefix + (move,)

    for aset in layers[length]:
        if is_synchronized(aset):
            yield from unwind(length, aset)


def _max_datum_multiplicity(cword) -> int:
    counts = {}
    fresh = 0
    for _, choice in cword:
        if choice == FRESH:
            ident = fresh
            fresh += 1
        else:
            ident = choice
        counts[ident] = counts.get(ident, 0) + 1
    return max(counts.values())


def test_criterion_5_counter_family():
    stats = {}
    for n, min_len in ((1, 4), (2, 6)):
        aut = gen_counter_nra(n)
        assert isinstance(bounded_sync_search(aut, SearchBudget(min_len)), Witness)
        assert isinstance(bounded_sync_search(aut, SearchBudget(min_len - 1)),
                          NoneWithinBound)
        witnesses = list(_all_witness_choice_words(aut, min_len))
        assert witnesses, f"counter({n}) has no witness at length {min_len}"
        floor = 2**n
        assert all(_max_datum_multiplicity(w) >= floor for w in witnesses)
        stats[n] = len(witnesses)
    report(5, f"counter minimal witnesses (counts {stats}) all repeat a datum "
              f">= 2^n times")


# ---------------------------------------------------------------------------
# 6. Tower family: tower(n) distinct data


def test_criterion_6_tower_family():
    assert rs.oracle_min_data_efficiency(gen_tower_nra(1), OracleParams(6, 3)) == 2
    assert ackermann(3, 2) == 4
    aut = gen_tower_nra(2)
    bound = 16
    negative = bounded_sync_search(
        aut, SearchBudget(bound, max_distinct_data=3, max_nodes=50_000_000))
    assert isinstance(negative, NoneWithinBound)
    positive = bounded_sync_search(
        aut, SearchBudget(bound, max_distinct_data=4, max_nodes=50_000_000))
    assert isinstance(positive, Witness)
    assert len(word_data(positive.word)) == 4
    assert oracle_is_synchronizing(aut, positive.word)
    report(6, f"tower(1) needs 2 data; tower(2): no witness with 3 data up to "
              f"length {bound} (search-bound caveat), witness with 4 found")


# ---------------------------------------------------------------------------
# 7. Fig 4: length-bounded beats shrink-first


def test_criterion_7_fig4(fig4):
    a, b = fig4.letter_index("a"), fig4.letter_index("b")
    found = bounded_sync_search(fig4, SearchBudget(3))
    assert isinstance(found, Witness)
    assert found.choice_word == ((a, FRESH), (b, FRESH), (b, FRESH))
    assert oracle_is_synchronizing(fig4, found.word)

    assert isinstance(bounded_sync_search(fig4, SearchBudget(2)), NoneWithinBound)

    # forcing the first two inputs to share one datum: nothing at length 3
    shared_prefix_hits = []
    for l1, l2, l3 in itertools.product(range(2), repeat=3):
        for third in (0, 1, FRESH):
            cword = ((l1, FRESH), (l2, 0), (l3, third))
            if third == 1:
                continue  # Seen(1) invalid: only one datum introduced
            if is_synchronized(abstract_run(fig4, cword)):
                shared_prefix_hits.append(cword)
    assert shared_prefix_hits == []
    report(7, "witness (a,x)(b,y)(b,z) at length 3; none at length 2; none at "
              "length 3 with the first two data equal")


# ---------------------------------------------------------------------------
# 8. Reduction round-trips


def _random_acceptance_nra(rng):
    aut = random_complete_automaton(rng, rng.randint(1, 3), 1, rng.randint(1, 2),
                                    deterministic=rng.random() < 0.4, acceptance=True)
    return aut


def _nonuniv_to_sync_leg(instances):
    """nonuniv witness at N  <=>  sync witness at N+2 on the reduction."""
    decided = 0
    for aut in instances:
        out = reduce_nonuniv_to_sync(aut)
        for bound in range(0, 5):
            univ = bounded_universality_witness(aut, bound)
            sync = bounded_sync_search(out, SearchBudget(bound + 2))
            assert not isinstance(univ, rs.BudgetExhausted)
            assert not isinstance(sync, rs.BudgetExhausted)
            assert isinstance(univ, Witness) == isinstance(sync, Witness), (aut, bound)
            decided += 1
    return decided


def _nonempty_shape(rng):
    base = random_complete_automaton(rng, rng.randint(1, 3), 1, rng.randint(1, 2),
                                     deterministic=True, acceptance=True)
    final = len(base.locations)
    ts = list(base.transitions)
    if rng.random() < 0.75:
        i = rng.randrange(len(ts))
        ts[i] = rs.Transition(ts[i].source, ts[i].letter, ts[i].guard, ts[i].update, final)
    return RegisterAutomaton(
        base.name, base.locations + ("final",), 1, base.alphabet, tuple(ts),
        Acceptance(base.acceptance.initial, frozenset({final})))


def _nonempty_to_sync_leg(rng, count):
    decided = 0
    while decided < count:
        src = _nonempty_shape(rng)
        if rs.validate(src):
            continue
        out = reduce_nonempty_to_sync_dra(src)
        nonempty = isinstance(nonemptiness_witness(src, 16), Witness)
        synchronizable = synchronizing_word_dra(out) is not None
        assert nonempty == synchronizable, src
        decided += 1
    return decided


def _sync_cert(aut, max_steps):
    """Shortest v with post(L x {x}, v) a singleton, plus its block chain."""
    eng = Engine(aut)
    start = frozenset((loc, (0,)) for loc in range(len(aut.locations)))
    parents = {(start, 1): None}
    frontier = [(start, 1)]
    for _ in range(max_steps):
        nxt_frontier = []
        for state in frontier:
            configs, used = state
            for letter in range(len(aut.alphabet)):
                for datum in range(used + 1):
                    child = frozenset(q2 for q in configs
                                      for q2 in eng.post_config(q, letter, datum))
                    key = (child, max(used, datum + 1))
                    if key in parents:
                        continue
                    parents[key] = (state, (letter, datum))
                    if len(child) == 1:
                        word = []
                        cur = key
                        while parents[cur] is not None:
                            cur, step = parents[cur]
                            word.append(step)
                        word.reverse()
                        return tuple(word)
                    nxt_frontier.append(key)
        frontier = nxt_frontier
        if not frontier:
            return None
    return None


def _encode(src, comp, v, y=None):
    """The synchronization-process encoding of v as a word over comp's letters."""
    eng = Engine(src)
    sig = len(src.alphabet)
    n = len(src.locations)
    star = sig + n
    data = {0} | {d for _, d in v}
    y = max(data) + 1 if y is None else y
    blocks = [frozenset((loc, (0,)) for loc in range(n))]
    for letter, datum in v:
        blocks.append(frozenset(q2 for q in blocks[-1]
                                for q2 in eng.post_config(q, letter, datum)))
    out = []
    for i, (letter, datum) in enumerate(v):
        out.append((star, y))
        out.extend((sig + loc, values[0]) for loc, values in sorted(blocks[i]))
        out.append((letter, datum))
    ((final_loc, final_vals),) = blocks[-1]
    out += [(star, y), (sig + final_loc, final_vals[0]), (star, y)]
    return tuple(out)


def _sync_to_nonuniv_leg(rng, cert_count, search_count):
    certified = undecided = searched = 0
    while certified < cert_count:
        src = random_complete_automaton(rng, rng.randint(1, 3), 1, rng.randint(1, 2),
                                        deterministic=rng.random() < 0.3)
        comp = reduce_sync_to_nonuniv(src)
        if not all(rs.inequality_update_check(src)):
            # not synchronizable; the output is the universal automaton
            assert isinstance(bounded_universality_witness(comp, 3),
                              NoneWithinBound)
            continue
        cert = _sync_cert(src, 4)
        if cert is None:
            undecided += 1
            continue
        encoding = _encode(src, comp, cert)
        # a faithful encoding is in lang, hence outside L(comp): nonuniv witness
        assert not accepts(comp, encoding), (src, cert)
        # corrupted encodings violate a condition and must be accepted
        for mutant in _corruptions(src, comp, cert, encoding):
            assert accepts(comp, mutant), (src, cert, mutant)
        certified += 1
        if searched < search_count and len(src.locations) <= 2:
            found = bounded_universality_witness(
                comp, len(encoding), max_nodes=20_000_000)
            assert isinstance(found, Witness), (src, cert)
            assert not accepts(comp, found.word)
            searched += 1
    return certified, searched, undecided


def _corruptions(src, comp, v, encoding):
    sig = len(src.alphabet)
    n = len(src.locations)
    star = sig + n
    y = encoding[0][1]
    enc = list(encoding)
    # wrong initial block: drop the first location entry
    yield tuple([enc[0]] + enc[2:])
    # delimiter datum drift: give the final * a different datum
    yield tuple(enc[:-1] + [(star, y + 1)])
    # delimiter datum reused by a location letter
    yield tuple(enc[:1] + [(enc[1][0], y)] + enc[2:])
    # malformed projection: truncate the trailing delimiter
    yield tuple(enc[:-1])
    # drop one obligated successor entry from a later block, if one exists
    starts = [i for i, (letter, _) in enumerate(enc) if letter == star]
    for block_idx in range(1, len(starts) - 1):
        lo, hi = starts[block_idx], starts[block_idx + 1]
        if hi - lo > 2:  # block holds >= 2 configuration entries
            yield tuple(enc[:lo + 1] + enc[lo + 2:])
            return


def test_criterion_8_reductions():
    rng = random.Random(88)
    nonuniv_instances = [_random_acceptance_nra(rng) for _ in range(40)]
    nonuniv_instances += [
        # universal and empty-language corner cases
        rs.parse_automaton("automaton u\nregisters 1\nalphabet a\n"
                           "location q initial accepting\n"
                           "trans q -> q on a when true set *\n"),
        rs.parse_automaton("automaton e\nregisters 1\nalphabet a\n"
                           "location q initial\n"
                           "trans q -> q on a when true set *\n"),
    ]
    decided_nu = _nonuniv_to_sync_leg(nonuniv_instances)
    decided_ne = _nonempty_to_sync_leg(rng, 120)
    certified, searched, undecided = _sync_to_nonuniv_leg(rng, 120, 6)
    report(8, f"nonuniv->sync: {decided_nu} (instance, bound) pairs agree; "
              f"nonempty->sync: {decided_ne} instances agree; sync->nonuniv: "
              f"{certified} certified + {searched} searched, {undecided} "
              f"undecided-at-bound reported")


# ---------------------------------------------------------------------------
# 9. Differential soundness: abstract engine vs oracle


def _paired_walk(aut, max_len, rng, spot_budget):
    eng = Engine(aut)
    k = aut.registers
    pool = list(range(max_len + k))
    init = frozenset((loc, values) for loc in range(len(aut.locations))
                     for values in itertools.product(pool, repeat=k))
    memo = {}
    nodes = spots = 0
    stack = [((eng.abstract_initial(), init, 0), ())]
    while stack:
        state, word = stack.pop()
        aset, cset, used = state
        remaining = max_len - len(word)
        if memo.get(state, -1) >= remaining:
            continue
        memo[state] = remaining
        if word:
            nodes += 1
            verdict = is_synchronized(aset)
            assert verdict == (len(cset) == 1), (aut, word)
            if spots < spot_budget and rng.random() < 0.02:
                spots += 1
                assert oracle_is_synchronizing(aut, word) == verdict, (aut, word)
        if remaining == 0:
            continue
        for letter in range(len(aut.alphabet)):
            for choice in list(range(used)) + [FRESH]:
                datum = used if choice == FRESH else choice
                child = (eng.abstract_post(aset, letter, choice),
                         frozenset(q2 for q in cset
                                   for q2 in eng.post_config(q, letter, datum)),
                         max(used, datum + 1))
                stack.append((child, word + ((letter, datum),)))
    return nodes, spots


def test_criterion_9_differential_soundness():
    rng = random.Random(99)
    nodes = spots = instances = 0
    for n_loc, n_let in ((1, 1), (1, 2), (2, 1)):
        for aut in enumerate_1dras(n_loc, n_let):
            n, s = _paired_walk(aut, 4, rng, 3)
            nodes, spots, instances = nodes + n, spots + s, instances + 1
    for _ in range(500):
        aut = random_complete_automaton(rng, rng.randint(1, 3), rng.randint(0, 2),
                                        rng.randint(1, 2),
                                        deterministic=rng.random() < 0.3)
        n, s = _paired_walk(aut, 4, rng, 3)
        nodes, spots, instances = nodes + n, spots + s, instances + 1
    report(9, f"abstract == oracle on {nodes} (automaton, choice word) pairs "
              f"across {instances} instances ({spots} full-oracle spot checks)")


# ---------------------------------------------------------------------------
# 10. Equivariance suite


def test_criterion_10_equivariance():
    rng = random.Random(1010)
    for _ in range(1000):
        k = rng.randint(1, 3)
        guard = random_guard(rng, k, depth=3)
        valuation = tuple(rng.randrange(5) for _ in range(k))
        datum = rng.randrange(5)
        image = rng.sample(range(100, 200), 5)
        pi = dict(enumerate(image))
        assert eval_constraint(guard, valuation, datum) == eval_constraint(
            guard, tuple(pi[x] for x in valuation), pi[datum])
    for _ in range(1000):
        k = rng.randint(0, 2)
        aut = random_complete_automaton(rng, rng.randint(1, 3), k, rng.randint(1, 2))
        word = tuple((rng.randrange(len(aut.alphabet)), rng.randrange(4))
                     for _ in range(rng.randint(1, 3)))
        configs = frozenset(
            (rng.randrange(len(aut.locations)), tuple(rng.randrange(4) for _ in range(k)))
            for _ in range(rng.randint(1, 3)))
        image = rng.sample(range(100, 200), 4)
        pi = dict(enumerate(image))
        left = rs.post_set(aut, [(l, tuple(pi[x] for x in vs)) for l, vs in configs],
                           [(a, pi[d]) for a, d in word])
        right = frozenset((l, tuple(pi[x] for x in vs))
                          for l, vs in rs.post_set(aut, configs, word))
        assert left == right
    report(10, "1000 guard-evaluation + 1000 post-set bijection checks pass")
