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

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain

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


# raw 64-bit PCG64 outputs drawn at a time for ``generate_ba``'s sampler
_RAW_BLOCK = 2048


def _uint32_words(bits):
    """The 32-bit words ``bits.next_uint32`` would return, in order, from
    a bit generator with no buffered half word: the low half of each raw
    PCG64 output, then its high half."""
    while True:
        raw = bits.random_raw(_RAW_BLOCK).astype("<u8", copy=False)
        yield raw.view("<u4").tolist()


def generate_ba(n: int, m0: int, m: int, seed: int) -> Graph:
    if not (m0 >= 1 and 1 <= m <= m0 and n >= m0 and seed >= 0):
        raise InvalidGraphParams(
            f"need m0 >= 1, 1 <= m <= m0, n >= m0, seed >= 0; got n={n}, "
            f"m0={m0}, m={m}, seed={seed}")
    # each target is np.random.default_rng(seed).integers(0, len(pool)),
    # bit for bit: numpy draws below 2**32 by Lemire's multiply-and-reject
    # (ACM TOMACS 29(1), 2019) on next_uint32 words, taken here in blocks
    words = chain.from_iterable(
        _uint32_words(np.random.default_rng(int(seed)).bit_generator))
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
            # the pool holds 2 entries per edge, so high >= 2: numpy would
            # draw no word for high = 1
            high = len(pool)
            reject = (2**32 - high) % high
            chosen = set()
            while len(chosen) < m:
                x = next(words) * high
                while x & 0xFFFFFFFF < reject:
                    x = next(words) * high
                chosen.add(pool[x >> 32])
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


def graph_json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` for a
    ``graph_to_dict`` document, byte for byte, with the edge pairs written
    directly: json indents in pure Python, one call per number."""
    rest = json.dumps({k: v for k, v in doc.items() if k != "edges"},
                      indent=2, sort_keys=True)
    pairs = ",\n".join(f"    [\n      {u},\n      {v}\n    ]"
                       for u, v in doc["edges"])
    edges = f"[\n{pairs}\n  ]" if pairs else "[]"
    # "edges" sorts before the other keys
    return f'{{\n  "edges": {edges},\n{rest[2:]}\n'
