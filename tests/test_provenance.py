"""Tests for provenance tracing over the prevIds DAG (chain-only, fast)."""

import pytest

from repro.chain import Blockchain
from repro.contracts import DataTokenContract
from repro.errors import ProtocolError
from repro.core.provenance import ProvenanceGraph


@pytest.fixture
def lineage():
    """Build the Figure-2-style DAG:

        t1 --+                      +--> t5 (partition)
             +--> t3 (aggregation) -+
        t2 --+                      +--> t6 (partition)
        t3 ------> t4 (duplication)
        (t4, ) --> t7 (processing)
    """
    chain = Blockchain()
    alice = chain.create_account(funded=10**9)
    token = DataTokenContract()
    chain.deploy(token, alice)
    t1 = chain.transact(alice, token, "mint", "u1", 11).return_value
    t2 = chain.transact(alice, token, "mint", "u2", 22).return_value
    t3 = chain.transact(alice, token, "aggregate", (t1, t2), "u3", 33, "p3").return_value
    t4 = chain.transact(alice, token, "duplicate", t3, "u4", 44, "p4").return_value
    t5, t6 = chain.transact(
        alice, token, "partition", t3, (("u5", 55), ("u6", 66)), "p5"
    ).return_value
    t7 = chain.transact(alice, token, "process", (t4,), "u7", 77, "p7").return_value
    graph = ProvenanceGraph.from_token_contract(chain, token)
    return graph, (t1, t2, t3, t4, t5, t6, t7)


class TestProvenanceGraph:
    def test_graph_shape(self, lineage):
        graph, ids = lineage
        assert graph.num_tokens == 7
        assert graph.is_acyclic()

    def test_ancestors_and_descendants(self, lineage):
        graph, (t1, t2, t3, t4, t5, t6, t7) = lineage
        assert graph.ancestors(t7) == {t1, t2, t3, t4}
        assert graph.ancestors(t5) == {t1, t2, t3}
        assert graph.descendants(t1) == {t3, t4, t5, t6, t7}
        assert graph.ancestors(t1) == set()

    def test_sources_trace_to_roots(self, lineage):
        graph, (t1, t2, t3, t4, t5, t6, t7) = lineage
        assert graph.sources_of(t7) == {t1, t2}
        assert graph.sources_of(t1) == {t1}

    def test_lineage_paths(self, lineage):
        graph, (t1, _t2, t3, t4, _t5, _t6, t7) = lineage
        paths = graph.lineage_paths(t1, t7)
        assert paths == [[t1, t3, t4, t7]]
        assert graph.lineage_paths(t7, t1) == []

    def test_transformation_history_is_topological(self, lineage):
        graph, (t1, t2, t3, t4, _t5, _t6, t7) = lineage
        history = graph.transformation_history(t7)
        order = [t for t, _ in history]
        assert order.index(t1) < order.index(t3) < order.index(t4) < order.index(t7)
        kinds = dict(history)
        assert kinds[t3] == "aggregation"
        assert kinds[t4] == "duplication"
        assert kinds[t7] == "processing"

    def test_commitment_chain(self, lineage):
        graph, (t1, _t2, t3, t4, _t5, _t6, t7) = lineage
        chain = graph.commitment_chain(t1, t7)
        assert chain == [11, 33, 44, 77]
        with pytest.raises(ProtocolError):
            graph.commitment_chain(t7, t1)

    def test_unknown_token_raises(self, lineage):
        graph, _ = lineage
        with pytest.raises(ProtocolError):
            graph.ancestors(999)

    def test_node_attributes(self, lineage):
        graph, (t1, *_rest) = lineage
        attrs = graph.attributes(t1)
        assert attrs["kind"] == "source"
        assert attrs["uri"] == "u1"
        assert attrs["burned"] is False
