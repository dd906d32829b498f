"""Seeded Barabasi-Albert scale-free graph generation, degree statistics,
and the bridge from graph connectivity to the model's contact rate.

Generation starts from a complete graph on m0 nodes (so the first
attachment step always sees nonzero degrees) and grows one node at a time,
attaching m edges sampled from the repeated-endpoint pool: every edge
contributes both endpoints, which makes the draw exactly proportional to
current degree; duplicate targets within a node's batch are resampled.
Identical (n, m0, m, seed) always reproduce the identical edge list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import _require
from .errors import InsufficientTail, InvalidGraphParams


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: node count plus a sorted edge list, with
    the generation parameters and RNG seed kept for provenance."""

    n: int
    edges: tuple[tuple[int, int], ...]
    seed: int
    m0: int
    m: int


@dataclass(frozen=True)
class DegreeHistogram:
    counts: dict
    n: int


def generate_ba(n: int, m0: int, m: int, seed: int) -> Graph:
    if not (m0 >= 1 and 1 <= m <= m0 and n >= m0 and seed >= 0):
        raise InvalidGraphParams(
            f"need m0 >= 1, 1 <= m <= m0, n >= m0, seed >= 0; got n={n}, "
            f"m0={m0}, m={m}, seed={seed}")
    rng = np.random.default_rng(int(seed))
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    pool = []
    for u, v in edges:
        pool.append(u)
        pool.append(v)
    for v in range(m0, n):
        if not pool:
            # m0 = 1 leaves the seed clique edgeless; attach to the sole node
            targets = [0]
        else:
            chosen = set()
            while len(chosen) < m:
                chosen.add(pool[int(rng.integers(0, len(pool)))])
            targets = sorted(chosen)
        for u in targets:
            edges.append((u, v))
        for u in targets:
            pool.append(u)
            pool.append(v)
    edges.sort()
    return Graph(n=int(n), edges=tuple(edges), seed=int(seed),
                 m0=int(m0), m=int(m))


def degree_histogram(graph: Graph) -> DegreeHistogram:
    deg = [0] * graph.n
    for u, v in graph.edges:
        deg[u] += 1
        deg[v] += 1
    return DegreeHistogram(counts=dict(Counter(deg)), n=graph.n)


def mean_degree(graph: Graph) -> float:
    _require(graph.n > 0, "n", graph.n, "n > 0")
    return 2.0 * len(graph.edges) / graph.n


def gamma_from_graph(graph: Graph, per_contact_prob: float) -> float:
    """Contact rate for the mean-field model: per-contact transmission
    probability times the mean degree.  The model itself is
    degree-homogeneous, so the mean degree is the documented bridge."""
    _require(0.0 <= per_contact_prob <= 1.0, "per_contact_prob",
             per_contact_prob, "0 <= per_contact_prob <= 1")
    return per_contact_prob * mean_degree(graph)


def powerlaw_slope(hist: DegreeHistogram, k_min: int) -> float:
    """Density exponent from a least-squares fit of log CCDF vs log degree
    over distinct degrees >= k_min (slope magnitude + 1).  Requires at
    least four distinct degrees in the tail."""
    degs = sorted(d for d in hist.counts if d >= k_min and d > 0)
    if len(degs) < 4:
        raise InsufficientTail(
            f"{len(degs)} distinct degrees >= {k_min}; need at least 4")
    total = float(sum(hist.counts[d] for d in degs))
    ccdf = []
    remaining = total
    for d in degs:
        ccdf.append(remaining / total)
        remaining -= hist.counts[d]
    slope = float(np.polyfit(np.log(degs), np.log(ccdf), 1)[0])
    return abs(slope) + 1.0


def edge_list_text(graph: Graph) -> str:
    """One "u v" pair per line, ascending."""
    return "".join(f"{u} {v}\n" for u, v in sorted(graph.edges))


def graph_to_dict(graph: Graph) -> dict:
    return {"n": graph.n, "m0": graph.m0, "m": graph.m, "seed": graph.seed,
            "edges": [[u, v] for u, v in sorted(graph.edges)]}
