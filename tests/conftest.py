import pathlib

import pytest

from regsync import dsl
from regsync.dsl import SourceDocument, parse_automaton
from helpers import kernel_tables

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def fig4():
    path = DATA / "fig4.ra"
    return parse_automaton(SourceDocument(path.read_text(), str(path)))


@pytest.fixture
def empty_guard_table(monkeypatch):
    """Empty process-wide guard and document tables for one test; the old
    ones after it."""
    monkeypatch.setattr(dsl, "_GUARDS", {})
    monkeypatch.setattr(dsl, "_DOCUMENTS", {})


@pytest.fixture
def empty_kernel_tables():
    """Empty process-wide tables of the automaton-free abstract step (splits,
    writes, initial valuations, submask unions) for one test; the old ones
    after it."""
    with kernel_tables():
        yield
