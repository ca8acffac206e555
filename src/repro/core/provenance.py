"""Traceability queries over the on-chain transformation DAG.

Everything here is computed purely from public chain state: the
``prevIds[]`` metadata recorded by the DataTokenContract.  This realises
the paper's Figure 2 — "data assets undergo multiple transformations,
which can be traced through prevIds[] up to their sources".
"""

from __future__ import annotations

from repro.errors import ProtocolError


class ProvenanceGraph:
    """The transformation DAG of every token minted on a contract: each
    token's attributes and ``prev_ids`` (its parents), in mint order."""

    def __init__(self, attrs: dict[int, dict], parents: dict[int, tuple]):
        self._attrs = attrs
        self._parents = parents
        #: token -> the tokens naming it in their ``prev_ids``, in mint order.
        self._children: dict[int, list[int]] = {t: [] for t in parents}
        for token_id, prev in parents.items():
            for parent in prev:
                self._children.setdefault(parent, []).append(token_id)

    @staticmethod
    def from_token_contract(chain, token) -> "ProvenanceGraph":
        """Read every token's attributes and parents from chain state."""
        attrs: dict[int, dict] = {}
        parents: dict[int, tuple] = {}
        total = chain.call_view(token, "total_minted")
        for token_id in range(1, total + 1):
            attrs[token_id] = {
                "kind": chain.call_view(token, "kind_of", token_id),
                "uri": chain.call_view(token, "token_uri", token_id),
                "commitment": chain.call_view(token, "commitment_of", token_id),
                "owner": chain.call_view(token, "owner_of", token_id),
                "burned": chain.call_view(token, "is_burned", token_id),
                "proof_hash": chain.call_view(token, "proof_hash_of", token_id),
            }
            parents[token_id] = tuple(chain.call_view(token, "prev_ids", token_id))
        return ProvenanceGraph(attrs, parents)

    def attributes(self, token_id: int) -> dict:
        """The token's kind, uri, commitment, owner, burned flag and proof hash."""
        self._require(token_id)
        return dict(self._attrs[token_id])

    def _require(self, token_id: int) -> None:
        if token_id not in self._attrs:
            raise ProtocolError("token %d is not in the provenance graph" % token_id)

    def _reach(self, token_id: int, edges: dict) -> set:
        seen: set = set()
        stack = list(edges.get(token_id, ()))
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(edges.get(t, ()))
        return seen

    def ancestors(self, token_id: int) -> set:
        """Every token this one (transitively) derives from."""
        self._require(token_id)
        return self._reach(token_id, self._parents)

    def descendants(self, token_id: int) -> set:
        """Every token (transitively) derived from this one."""
        self._require(token_id)
        return self._reach(token_id, self._children)

    def sources_of(self, token_id: int) -> set:
        """The original (parentless) datasets this token descends from."""
        self._require(token_id)
        lineage = self.ancestors(token_id) | {token_id}
        return {t for t in lineage if not self._parents.get(t)}

    def lineage_paths(self, source: int, target: int) -> list[list[int]]:
        """All transformation paths from one token to another, depth first
        with children in mint order."""
        self._require(source)
        self._require(target)
        paths: list[list[int]] = []

        def walk(path: list[int]) -> None:
            if path[-1] == target:
                paths.append(list(path))
                return
            for child in self._children.get(path[-1], ()):
                if child not in path:
                    walk(path + [child])

        walk([source])
        return paths

    def _generations(self, nodes: set) -> list[int]:
        """``nodes`` in topological order: parents before children, each
        generation in mint order (Kahn's algorithm); stops short of any
        node on a cycle."""
        indegree = {t: sum(1 for p in self._parents.get(t, ()) if p in nodes) for t in nodes}
        ready = [t for t in self._parents if t in nodes and indegree[t] == 0]
        order: list[int] = []
        while ready:
            order += ready
            batch, ready = ready, []
            for t in batch:
                for child in self._children.get(t, ()):
                    if child in nodes:
                        indegree[child] -= 1
                        if indegree[child] == 0:
                            ready.append(child)
        return order

    def transformation_history(self, token_id: int) -> list[tuple]:
        """(token, kind) pairs along the lineage, topologically ordered."""
        self._require(token_id)
        lineage = self.ancestors(token_id) | {token_id}
        return [(t, self._attrs[t]["kind"]) for t in self._generations(lineage)]

    def is_acyclic(self) -> bool:
        """A healthy provenance graph is a DAG (tokens cannot predate
        their parents by construction of prevIds)."""
        return len(self._generations(set(self._parents))) == len(self._parents)

    def commitment_chain(self, source: int, target: int) -> list[int]:
        """Commitments along the shortest lineage path, for proof-chain
        verification against pi_t links."""
        paths = self.lineage_paths(source, target)
        if not paths:
            raise ProtocolError("no lineage between %d and %d" % (source, target))
        path = min(paths, key=len)
        return [self._attrs[t]["commitment"] for t in path]

    @property
    def num_tokens(self) -> int:
        return len(self._attrs)
