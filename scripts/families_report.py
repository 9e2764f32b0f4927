#!/usr/bin/env python3
"""Desk-scale tour of the hard-instance families.

Builds the chain / counter / tower families at small sizes, runs the
matching decision procedures and searches, and prints what each family is
designed to demonstrate: chains force n+1 distinct data, counters force a
datum to repeat 2^n times, towers force tower(n) distinct data.
"""

import argparse
import time

from regsync import (
    OracleParams,
    SearchBudget,
    Witness,
    bounded_sync_search,
    gen_chain_dra,
    gen_counter_nra,
    gen_tower_nra,
    oracle_min_data_efficiency,
    oracle_min_length,
    synchronizing_word_dra,
    tower,
    word_data,
)


def show(word, alphabet):
    return " ".join(f"{alphabet[a]}:{d}" for a, d in word)


def chains(n_max):
    print("== chain family: synchronizing words need n+1 distinct data")
    for n in range(1, n_max + 1):
        t0 = time.perf_counter()
        aut = gen_chain_dra(n)
        witness = synchronizing_word_dra(aut)
        dt = time.perf_counter() - t0
        print(f"chain({n}): witness {show(witness, aut.alphabet)}  "
              f"[{len(word_data(witness))} data, {dt:.2f}s]")
        if n <= 3:
            eff = oracle_min_data_efficiency(aut, OracleParams(n + 1, n + 1))
            print(f"          oracle minimum data efficiency: {eff} (= n+1)")


def counters(n_max):
    print("== counter family: some datum must occur 2^n times")
    for n in range(1, n_max + 1):
        aut = gen_counter_nra(n)
        length = 2**n + 2
        t0 = time.perf_counter()
        out = bounded_sync_search(aut, SearchBudget(length))
        dt = time.perf_counter() - t0
        assert isinstance(out, Witness)
        multiplicity = max(sum(1 for _, x in out.word if x == d) for _, d in out.word)
        print(f"counter({n}): witness at length {length} "
              f"({show(out.word, aut.alphabet)}), max datum multiplicity "
              f"{multiplicity} >= {2**n}  [{dt:.2f}s]")


def towers(n_max, budget):
    print("== tower family: |data(w)| >= tower(n)")
    for n in range(1, n_max + 1):
        aut = gen_tower_nra(n)
        need = tower(n)
        if n == 1:
            length = oracle_min_length(aut, OracleParams(6, 3))
            # once pool 3 has a word, only pools 1 and 2 are left to search
            eff = None if length is None else (
                oracle_min_data_efficiency(aut, OracleParams(6, 2)) or 3)
            print(f"tower(1): oracle min length {length}, min data {eff} (= tower(1) = {need})")
            continue
        t0 = time.perf_counter()
        out = bounded_sync_search(
            aut, SearchBudget(16, max_distinct_data=need, max_nodes=budget))
        dt = time.perf_counter() - t0
        if isinstance(out, Witness):
            print(f"tower({n}): witness with {len(word_data(out.word))} data "
                  f"(= tower({n}) = {need}) at length {len(out.word)}  [{dt:.1f}s]")
            print(f"           {show(out.word, aut.alphabet)}")
        else:
            print(f"tower({n}): {type(out).__name__} within budget  [{dt:.1f}s]")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chains", type=int, default=4)
    parser.add_argument("--counters", type=int, default=2)
    parser.add_argument("--towers", type=int, default=2)
    parser.add_argument("--max-nodes", type=int, default=50_000_000)
    args = parser.parse_args()
    chains(args.chains)
    counters(args.counters)
    towers(args.towers, args.max_nodes)


if __name__ == "__main__":
    main()
