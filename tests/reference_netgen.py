"""``generate_ba`` as it was before it drew its targets from raw PCG64
words, kept unchanged as the reference: one ``Generator.integers`` call per
target.  The raw-word sampler must give the same edges."""

import numpy as np

from pseirs.errors import InvalidGraphParams
from pseirs.netgen import Graph


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
