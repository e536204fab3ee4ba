"""The eleven record types: immutable, compared within their own class by
their fields, hashable, picklable, with a constructor-style repr."""

from __future__ import annotations

import pickle
from functools import lru_cache

import pytest

from kextend.connectivity import CutWitness
from kextend.extendibility import ExtendibilityCertificate, HallViolator
from kextend.graphs import Bipartition, Graph, OddCycle
from kextend.matching import AlternatingPath, DeficiencyWitness, Matching
from kextend.verifier import CorpusSpec, Report

P3 = Graph(3, (2, 5, 2))

# one sample per record type, with its repr from when the records were
# dataclasses
SAMPLES = [
    (P3, "Graph(n=3, adj=(2, 5, 2))"),
    (Bipartition((0, 2), (1,)), "Bipartition(x=(0, 2), y=(1,))"),
    (OddCycle((0, 1, 2)), "OddCycle(vertices=(0, 1, 2))"),
    (Matching(((0, 1),)), "Matching(edges=((0, 1),))"),
    (AlternatingPath((0, 1, 2)), "AlternatingPath(vertices=(0, 1, 2))"),
    (DeficiencyWitness(1, (0,)), "DeficiencyWitness(value=1, witness=(0,))"),
    (CutWitness((1,), (0, 2)), "CutWitness(cut=(1,), separated=(0, 2))"),
    (ExtendibilityCertificate(True, 0, exhibited=((),), graph=P3),
     "ExtendibilityCertificate(verdict=True, k=0, reason=None, "
     "witness=None, exhibited=((),))"),
    (ExtendibilityCertificate(False, 1, "BlockedMatching",
                              Matching(((0, 1),))),
     "ExtendibilityCertificate(verdict=False, k=1, "
     "reason='BlockedMatching', witness=Matching(edges=((0, 1),)), "
     "exhibited=())"),
    (HallViolator((0, 2), 1), "HallViolator(a=(0, 2), neighborhood_size=1)"),
    (CorpusSpec("random", n=10, count=5, seed=3),
     "CorpusSpec(mode='random', n=10, count=5, seed=3, "
     "edge_probability=0.5, source=None, strict=True)"),
    (Report({"mode": "exhaustive", "n": 3}, 2, 8, {"P21": {"holds": 8}}, (),
            ("note",), "1.0", 1.5),
     "Report(corpus={'mode': 'exhaustive', 'n': 3}, kmax=2, "
     "graphs_processed=8, properties={'P21': {'holds': 8}}, violations=(), "
     "notes=('note',), version='1.0', wall_time_ms=1.5)"),
]
RECORDS = [record for record, _ in SAMPLES]
IDS = [f"{type(r).__name__}{i}" for i, r in enumerate(RECORDS)]


def _hash(record):
    """The record's hash; None for a Report, whose dicts make it
    unhashable, as they did when it was a dataclass."""
    try:
        return hash(record)
    except TypeError:
        assert isinstance(record, Report)
        return None


def _assert_immutable(record):
    field = next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is not None


def test_every_record_type_has_a_sample():
    assert len({type(r) for r in RECORDS}) == 11


@pytest.mark.parametrize("record, text", SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_one(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_refuse_assignment_and_deletion(record):
    _assert_immutable(record)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_pickle_round_trip(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is type(record)
        assert copy == record and _hash(copy) == _hash(record)
        assert copy.__dict__ == record.__dict__
        _assert_immutable(copy)


def test_pickled_certificate_keeps_graph_and_exhibit():
    cert = ExtendibilityCertificate(True, 0, exhibited=((),), graph=P3)
    exhibit = cert.exhibit
    copy = pickle.loads(pickle.dumps(cert))
    assert copy.graph == P3 and copy.exhibit == exhibit


def test_equal_values_of_different_types_are_unequal():
    assert OddCycle((0, 1, 2)) != AlternatingPath((0, 1, 2))
    assert AlternatingPath((0, 1, 2)) != OddCycle((0, 1, 2))
    assert OddCycle((0, 1, 2)) != (0, 1, 2)
    assert OddCycle((0, 1, 2)) == OddCycle((0, 1, 2))


def test_positional_and_keyword_construction_agree():
    assert Graph(3, (2, 5, 2)) == Graph(adj=(2, 5, 2), n=3)
    assert (CorpusSpec("external", 0, 0, 0, 0.5, "a.g6", False)
            == CorpusSpec(mode="external", source="a.g6", strict=False))
    with pytest.raises(TypeError):
        Graph(3)
    with pytest.raises(TypeError):
        Bipartition((0,), (1,), (2,))


def test_certificate_equality_and_hash_ignore_graph():
    with_graph = ExtendibilityCertificate(True, 0, exhibited=((),), graph=P3)
    without = ExtendibilityCertificate(True, 0, exhibited=((),))
    assert with_graph == without and hash(with_graph) == hash(without)
    assert "graph" not in repr(with_graph)
    assert with_graph != ExtendibilityCertificate(True, 0)


def test_graph_is_an_lru_cache_key():
    calls = []

    @lru_cache(maxsize=None)
    def edge_count(g):
        calls.append(g)
        return g.edge_count

    assert edge_count(P3) == edge_count(Graph(3, (2, 5, 2))) == 2
    assert edge_count(Graph(3, (0, 0, 0))) == 0
    assert len(calls) == 2
