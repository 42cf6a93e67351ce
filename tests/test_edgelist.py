"""Tests for EdgeList (repro.graph.edgelist)."""

import warnings

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import EdgeList


def make(n, pairs, w=None):
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    return EdgeList(n, u, v, None if w is None else np.asarray(w, dtype=np.int64))


class TestValidation:
    def test_valid(self):
        g = make(5, [(0, 1), (2, 3)])
        assert g.m == 2 and g.n == 5

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            make(3, [(0, 3)])
        with pytest.raises(GraphError):
            make(3, [(-1, 0)])

    def test_rejects_negative_n(self):
        with pytest.raises(GraphError):
            EdgeList(-1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def test_rejects_length_mismatch(self):
        with pytest.raises(GraphError):
            EdgeList(5, np.array([0]), np.array([1, 2]))

    def test_rejects_weight_mismatch(self):
        with pytest.raises(GraphError):
            make(5, [(0, 1)], w=[1, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, 1e300])
    @pytest.mark.parametrize("field", ["u", "v", "w"])
    def test_rejects_non_whole_float_input_without_warning(self, field, bad):
        arrays = {"u": [0.0, 1.0], "v": [1.0, 2.0], "w": [1.0, 2.0]}
        arrays[field] = [arrays[field][0], bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match=f"{field} must hold whole numbers"):
                EdgeList(3, **arrays)

    def test_accepts_whole_float_input(self):
        g = EdgeList(3, [0.0, 1.0], [1.0, 2.0], w=[7.0, -3.0])
        assert g.u.dtype == g.v.dtype == g.w.dtype == np.int64
        assert g.w.tolist() == [7, -3]

    def test_density(self):
        assert make(10, [(0, 1)] * 5).density == pytest.approx(0.5)
        assert EdgeList(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)).density == 0


class TestTransforms:
    def test_canonical_pairs_orientation_invariant(self):
        a = make(10, [(2, 7)])
        b = make(10, [(7, 2)])
        assert a.canonical_pairs()[0] == b.canonical_pairs()[0]

    def test_deduplicated(self):
        g = make(10, [(0, 1), (1, 0), (2, 3), (0, 1)])
        d = g.deduplicated()
        assert d.m == 2

    def test_deduplicated_keeps_first_weight(self):
        g = make(10, [(0, 1), (1, 0)], w=[5, 3])
        d = g.deduplicated()
        assert d.m == 1 and d.w[0] == 5

    def test_dedup_min_weight(self):
        g = make(10, [(0, 1), (1, 0), (2, 3)], w=[5, 3, 7])
        d = g.deduplicated_min_weight()
        assert d.m == 2
        assert d.w[d.canonical_pairs() == g.canonical_pairs()[0]][0] == 3

    def test_dedup_min_weight_index_sorted(self):
        g = make(10, [(0, 1), (1, 0), (2, 3)], w=[5, 3, 7])
        keep = g.dedup_min_weight_index()
        assert keep.tolist() == [1, 2]

    def test_dedup_min_weight_tie_keeps_earliest(self):
        g = make(10, [(0, 1), (1, 0)], w=[4, 4])
        keep = g.dedup_min_weight_index()
        assert keep.tolist() == [0]

    def test_without_self_loops(self):
        g = make(5, [(0, 0), (1, 2)])
        assert g.without_self_loops().m == 1

    def test_symmetrized(self):
        g = make(5, [(0, 1)], w=[9])
        s = g.symmetrized()
        assert s.m == 2
        assert s.u.tolist() == [0, 1] and s.v.tolist() == [1, 0]
        assert s.w.tolist() == [9, 9]

    def test_permuted(self):
        g = make(3, [(0, 1), (1, 2)])
        p = g.permuted(np.array([2, 0, 1]))
        assert p.u.tolist() == [2, 0] and p.v.tolist() == [0, 1]

    def test_permuted_rejects_non_permutation(self):
        g = make(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.permuted(np.array([0, 0, 1]))
        with pytest.raises(GraphError):
            g.permuted(np.array([0, 1]))

    def test_with_weights(self):
        g = make(3, [(0, 1)])
        w = g.with_weights(np.array([42]))
        assert w.weighted and w.w[0] == 42

    def test_shuffled_preserves_multiset(self):
        g = make(20, [(i, i + 1) for i in range(19)], w=list(range(19)))
        s = g.shuffled(seed=1)
        assert sorted(s.canonical_pairs().tolist()) == sorted(g.canonical_pairs().tolist())
        # weights travel with their edges
        for i in range(s.m):
            orig = np.flatnonzero(g.canonical_pairs() == s.canonical_pairs()[i])[0]
            assert s.w[i] == g.w[orig]

    def test_take(self):
        g = make(5, [(0, 1), (1, 2), (2, 3)], w=[1, 2, 3])
        t = g.take(np.array([2, 0]))
        assert t.u.tolist() == [2, 0] and t.w.tolist() == [3, 1]


class TestStructure:
    def test_degrees(self):
        g = make(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees().tolist() == [3, 1, 1, 1]

    def test_self_loop_counts_twice(self):
        g = make(2, [(0, 0)])
        assert g.degrees()[0] == 2

    def test_max_degree_empty(self):
        g = make(3, [])
        assert g.max_degree() == 0


class TestInterop:
    def test_to_networkx(self):
        g = make(4, [(0, 1), (2, 3)])
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 2

    def test_to_networkx_weighted(self):
        g = make(3, [(0, 1)], w=[7])
        nxg = g.to_networkx()
        assert nxg[0][1]["weight"] == 7

    def test_to_scipy_symmetric(self):
        g = make(3, [(0, 1)])
        mat = g.to_scipy()
        assert mat[0, 1] == 1 and mat[1, 0] == 1

    def test_to_scipy_weighted_min_dedup(self):
        g = make(3, [(0, 1), (1, 0)], w=[9, 4])
        mat = g.to_scipy()
        assert mat[0, 1] == 4

    def test_iter_edges(self):
        g = make(4, [(0, 1), (2, 3)])
        assert list(g.iter_edges()) == [(0, 1), (2, 3)]
