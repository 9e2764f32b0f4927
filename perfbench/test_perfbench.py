"""Self-test of the benchmark: python3 -m pytest perfbench/test_perfbench.py

Runs the first queries of each workload through the traced client twice,
each time in a fresh process as a benchmark run is (regsync's engine cache
outlives a query), and checks that the counts repeat exactly, that every
verdict passes the gate, and that a second seed runs clean.  The chain(5)
witness, which the gate checks with its reduced enumeration during runs, is
checked here with the oracle itself.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from regsync import dra, dsl, nra, oracle, ra  # noqa: E402
from regsync.gadgets import gen_chain_dra  # noqa: E402

WORKLOADS = tuple(inputs.WORKLOADS)
QUERIES = 40


def _traced_prefix(workload, seed) -> dict:
    """Counts, verdict shapes and gate failures of the first QUERIES queries."""
    queries = inputs.generate(workload, seed)[:QUERIES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        execute = tracer.wrap("query", "client", client.execute)
        verdicts = []
        for index, query in enumerate(queries):
            tracer.begin_query(index)
            verdicts.append(execute(query))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    checker = gate.Gate()
    for query, verdict in zip(queries, verdicts):
        checker.check(query, verdict)
    lengths = []
    for v in verdicts:
        word = getattr(v.result, "word", v.result)
        lengths.append([v.decided, len(word) if isinstance(word, tuple) else None])
    return {"counts": {name: value for name, value in metrics.items()
                       if tracing.PER_LAYER[name] == "count"},
            "lengths": lengths, "checks": checker.calls, "failures": checker.failures}


def _fresh(workload, seed) -> dict:
    proc = subprocess.run([sys.executable, __file__, workload, str(seed)],
                          capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_counts(workload):
    first, second = _fresh(workload, 11), _fresh(workload, 11)
    assert first == second
    assert first["counts"]["semantics.abstract_post_calls"] > 0
    assert first["failures"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs_clean(workload):
    out = _fresh(workload, 12)
    assert out["failures"] == []
    assert out["checks"] > 0


def test_inputs_are_text_and_words():
    for workload in WORKLOADS:
        for query in inputs.generate(workload, 3)[:20]:
            assert isinstance(query.text, str)
            aut = dsl.parse_automaton(query.text)
            assert ra.validate(aut) == []
            assert all(0 <= letter < len(aut.alphabet) and datum >= 0
                       for letter, datum in query.word)


def test_tracer_rebinds_every_binding_site_and_restores():
    original = ra.is_complete
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dra.is_complete is nra.is_complete is ra.is_complete is not original
        assert ra.is_complete.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert dra.is_complete is nra.is_complete is ra.is_complete is original


def test_hot_calls_are_aggregated_into_the_enclosing_span():
    text = dsl.serialize_automaton(gen_chain_dra(2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_query(0)
        dra.synchronizing_word_dra(dsl.parse_automaton(text))
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert "abstract_post" not in names and "post_config" not in names
    shrink = [s for s in tracer.spans if s.name == "shrink_word"]
    assert shrink and shrink[0].hot["abstract_post"][0] > 0
    for span in tracer.spans:
        assert span.self_s >= -1e-6
        assert span.query == 0


def test_reduced_sync_check_agrees_with_oracle():
    rng = random.Random(5)
    for n in (1, 2, 3):
        aut = gen_chain_dra(n)
        word = dra.synchronizing_word_dra(aut)
        assert gate.reduced_synchronizes(aut, word) is True
        assert gate.reduced_synchronizes(aut, word[:-1]) == \
            oracle.oracle_is_synchronizing(aut, word[:-1])
    for _ in range(40):
        k = rng.randint(1, 2)
        aut = inputs.random_automaton(rng, "r", rng.randint(2, 4), k, 2, deterministic=False)
        word = inputs.random_word(rng, 2, rng.randint(1, 5))
        assert gate.reduced_synchronizes(aut, word) == oracle.oracle_is_synchronizing(aut, word)


def test_concrete_membership_agrees_with_accepts():
    rng = random.Random(6)
    for _ in range(60):
        aut = inputs.random_automaton(rng, "m", rng.randint(2, 5), rng.randint(1, 2), 2,
                                      deterministic=False, acceptance=True)
        word = inputs.random_word(rng, 2, rng.randint(0, 8))
        assert gate.concrete_accepts(aut, word) == nra.accepts(aut, word)


def test_chain5_witness_with_the_oracle():
    aut = gen_chain_dra(5)
    word = dra.synchronizing_word_dra(aut, max_nodes=inputs.DRA_MAX_NODES)
    assert gate.reduced_synchronizes(aut, word)
    assert oracle.oracle_is_synchronizing(aut, word)


if __name__ == "__main__":
    print(json.dumps(_traced_prefix(sys.argv[1], int(sys.argv[2]))))
