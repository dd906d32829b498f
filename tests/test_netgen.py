import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseirs import (DegreeHistogram, InsufficientTail, InvalidGraphParams,
                    degree_histogram, edge_list_text, gamma_from_graph,
                    generate_ba, graph_json_text, graph_to_dict, mean_degree,
                    powerlaw_slope)

import reference_netgen


class TestGenerate:
    def test_edge_count_small(self):
        g = generate_ba(10, 3, 2, 42)
        assert len(g.edges) == 3 + 2 * 7
        hist = degree_histogram(g)
        assert sum(d * c for d, c in hist.counts.items()) == 34

    def test_seed_clique_only(self):
        g = generate_ba(5, 5, 2, 0)
        assert len(g.edges) == 10  # complete graph on five nodes

    def test_large_graph_edge_arithmetic(self):
        g = generate_ba(5000, 3, 2, 7)
        assert len(g.edges) == 9997
        assert mean_degree(g) == pytest.approx(3.9988, abs=1e-12)

    @pytest.mark.parametrize("n,m0,m", [(10, 3, 5), (2, 3, 2), (5, 0, 1)])
    def test_invalid_params(self, n, m0, m):
        with pytest.raises(InvalidGraphParams):
            generate_ba(n, m0, m, 1)

    def test_deterministic(self):
        a = generate_ba(300, 3, 2, 123)
        b = generate_ba(300, 3, 2, 123)
        assert a.edges == b.edges
        c = generate_ba(300, 3, 2, 124)
        assert a.edges != c.edges

    def test_simple_graph(self):
        g = generate_ba(500, 4, 3, 9)
        assert all(u < v for u, v in g.edges)
        assert len(set(g.edges)) == len(g.edges)
        assert all(0 <= u and v < g.n for u, v in g.edges)

    def test_degenerate_seed_clique(self):
        # m0 = 1 has no seed edges; the first newcomer attaches to node 0
        g = generate_ba(6, 1, 1, 5)
        assert len(g.edges) == 5
        deg = degree_histogram(g)
        assert sum(deg.counts.values()) == 6

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(5, 120), m0=st.integers(2, 5), m=st.integers(1, 2),
           seed=st.integers(0, 2 ** 32))
    def test_growth_accounting(self, n, m0, m, seed):
        m = min(m, m0)
        g = generate_ba(n, m0, m, seed)
        assert len(g.edges) == m0 * (m0 - 1) // 2 + m * (n - m0)
        hist = degree_histogram(g)
        assert sum(hist.counts.values()) == n
        assert sum(d * c for d, c in hist.counts.items()) == 2 * len(g.edges)

    def test_heavy_tail_across_seeds(self):
        for seed in range(20):
            g = generate_ba(2000, 3, 2, seed)
            deg = np.zeros(g.n, dtype=int)
            for u, v in g.edges:
                deg[u] += 1
                deg[v] += 1
            assert deg.max() >= 5 * np.median(deg)


class TestHistogram:
    def test_clique(self):
        g = generate_ba(5, 5, 1, 0)
        assert degree_histogram(g).counts == {4: 5}

    def test_star(self):
        from pseirs.netgen import Graph
        g = Graph(n=6, edges=tuple((0, v) for v in range(1, 6)),
                  seed=0, m0=1, m=1)
        assert degree_histogram(g).counts == {1: 5, 5: 1}


class TestMeanDegreeAndBridge:
    def test_complete_twelve_node_graph(self):
        g = generate_ba(12, 12, 1, 0)
        assert mean_degree(g) == 11.0
        assert gamma_from_graph(g, 0.028) == pytest.approx(0.308, rel=1e-12)

    def test_zero_probability(self):
        g = generate_ba(10, 3, 2, 1)
        assert gamma_from_graph(g, 0.0) == 0.0

    def test_large_graph_bridge(self):
        g = generate_ba(5000, 3, 2, 7)
        assert gamma_from_graph(g, 0.1) == pytest.approx(0.39988, rel=1e-12)

    def test_single_node(self):
        g = generate_ba(1, 1, 1, 0)
        assert mean_degree(g) == 0.0


class TestPowerlawFit:
    def test_exact_powerlaw_ccdf(self):
        # counts chosen so the survival function is exactly k^-2 at every
        # degree (tail mass lumped into the top bin): the fitted density
        # exponent is then 2 + 1 = 3
        big = 10 ** 9
        counts = {k: round(big * (k ** -2 - (k + 1) ** -2)) for k in range(2, 64)}
        counts[64] = round(big * 64 ** -2)
        hist = DegreeHistogram(counts=counts, n=sum(counts.values()))
        assert powerlaw_slope(hist, 2) == pytest.approx(3.0, abs=0.1)

    def test_single_degree_insufficient(self):
        g = generate_ba(5, 5, 1, 0)  # 4-regular clique
        with pytest.raises(InsufficientTail):
            powerlaw_slope(degree_histogram(g), 2)

    def test_scale_free_exponent_range(self):
        for seed in (1, 2, 3, 4, 5):
            g = generate_ba(5000, 3, 2, seed)
            exponent = powerlaw_slope(degree_histogram(g), 2)
            assert 2.0 <= exponent <= 4.0


class TestExports:
    def test_edge_list_ascending(self):
        g = generate_ba(10, 3, 2, 42)
        text = edge_list_text(g)
        lines = text.strip().split("\n")
        assert len(lines) == 17
        pairs = [tuple(int(x) for x in line.split()) for line in lines]
        assert pairs == sorted(pairs)

    def test_json_dict_round_trip(self):
        import json
        g = generate_ba(10, 3, 2, 42)
        doc = json.loads(json.dumps(graph_to_dict(g)))
        assert doc["n"] == 10
        assert doc["seed"] == 42
        assert [tuple(e) for e in doc["edges"]] == sorted(g.edges)


class TestReferenceSampler:
    """The raw-word sampler against the ``Generator.integers`` loop it
    replaced (``tests/reference_netgen.py``).  Fails if numpy changes how
    ``integers`` draws below 2**32 or how PCG64 buffers 32-bit words."""

    GRID = [(n, m0, m, seed)
            for n in (1, 2, 7, 300) for m0 in (1, 2, 5) if m0 <= n
            for m in range(1, m0 + 1)
            for seed in (0, 1, 7, 2**31 - 1, 2**40 + 3)]

    def test_edges_equal_on_the_grid(self):
        for args in [*self.GRID, (5000, 3, 2, 7)]:
            assert (generate_ba(*args).edges
                    == reference_netgen.generate_ba(*args).edges), args

    @pytest.mark.parametrize("args", [(5000, 3, 2, 7), (1, 1, 1, 0)],
                             ids=["scale_free_5000", "edgeless"])
    def test_graph_json_text_is_json_dumps(self, args):
        doc = graph_to_dict(generate_ba(*args))
        assert graph_json_text(doc) == json.dumps(doc, indent=2,
                                                  sort_keys=True) + "\n"
