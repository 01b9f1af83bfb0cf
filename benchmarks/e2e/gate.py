"""The correctness gate: every checked reply must equal the reference.

Static workloads compare every reply for a fixed sample of vertices
bit-for-bit against an in-process ``SimRankEngine`` on the same graph,
config and seed; the reference is computed after the server stops, so
it never competes with the load.  The churn workload keeps a model of
the edge set the server acknowledged, checks each ``update`` reply
against it, and after a final ``flush`` compares a sample of answers
with a fresh engine built on that edge set.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from loadgen import Message, Sample

Items = List[List[float]]


def request_failures(samples: Iterable[Sample]) -> int:
    """Requests that errored, were shed, got no reply, or got another id."""
    return sum(
        1
        for s in samples
        if not s.ok or s.reply.get("id") != s.request.get("id")
    )


def epoch_regressions(samples: Iterable[Sample]) -> int:
    """Replies whose snapshot epoch went backwards on their connection."""
    last: Dict[int, int] = {}
    regressions = 0
    for s in sorted(samples, key=lambda s: s.done):
        if not s.ok or "epoch" not in s.reply:
            continue
        epoch = int(s.reply["epoch"])
        if epoch < last.get(s.conn, -1):
            regressions += 1
        last[s.conn] = max(epoch, last.get(s.conn, -1))
    return regressions


def first_distinct(vertices: Iterable[int], limit: int) -> List[int]:
    """The first ``limit`` distinct vertices, in stream order."""
    seen: Dict[int, None] = {}
    for v in vertices:
        seen.setdefault(v, None)
        if len(seen) == limit:
            break
    return list(seen)


def reference_items(engine: object, vertices: Iterable[int]) -> Dict[int, Items]:
    """``engine.top_k(u)`` for each vertex, in the wire format."""
    return {
        u: [[int(v), float(s)] for v, s in engine.top_k(u).items]
        for u in vertices
    }


class StaticGate:
    """Collect the replies for a vertex sample; compare after the run."""

    def __init__(self, sample: Sequence[int]) -> None:
        self.sample: Set[int] = set(sample)
        self.replies: List[Tuple[int, Items]] = []

    def observe(self, samples: Iterable[Sample]) -> None:
        for s in samples:
            if s.request.get("op") == "top_k" and s.ok and s.request["vertex"] in self.sample:
                self.replies.append((int(s.request["vertex"]), s.reply["items"]))

    def mismatches(self, reference: Dict[int, Items]) -> int:
        """Checked replies that differ from the reference in any bit."""
        return sum(1 for u, items in self.replies if items != reference[u])


class ChurnModel:
    """The edge set the server has acknowledged, write by write.

    Writes to one edge always travel on one connection, so the server
    applies them in the order they were sent; writes to different edges
    commute.  Replaying acknowledged writes in send order therefore
    reproduces the server's edge set exactly.
    """

    def __init__(self, edges: Iterable[Tuple[int, int]], n: int) -> None:
        self.edges: Set[Tuple[int, int]] = set(edges)
        self.min_n = n
        self.max_n = n
        self.ack_mismatches = 0

    def observe(self, samples: Iterable[Sample]) -> None:
        """Apply acknowledged ``update`` replies; count wrong acks."""
        for s in sorted(samples, key=lambda s: s.sent):
            if s.request.get("op") != "update" or not s.ok:
                continue
            reply: Message = s.reply
            for u, v in s.request.get("add", []):
                expected = (u, v) not in self.edges
                self.edges.add((u, v))
                self.max_n = max(self.max_n, u + 1, v + 1)
                self.ack_mismatches += int(reply.get("added") != int(expected))
            for u, v in s.request.get("remove", []):
                expected = (u, v) in self.edges
                self.edges.discard((u, v))
                self.ack_mismatches += int(reply.get("removed") != int(expected))

    def final_problems(self, n: int, m: int) -> Optional[str]:
        """Why the server's flushed vertex/edge counts disagree, if they do.

        A vertex that an edit grew the graph by stays even when the edge
        is removed later, unless both edits fell in one flush; so the
        vertex count may lie anywhere between the base and the largest
        endpoint ever added.
        """
        if m != len(self.edges):
            return f"server has {m} edges, acknowledged writes leave {len(self.edges)}"
        if not self.min_n <= n <= self.max_n:
            return f"server has {n} vertices, expected {self.min_n}..{self.max_n}"
        if self.edges and n <= max(max(e) for e in self.edges):
            return f"server has {n} vertices but an edge ends beyond it"
        return None
