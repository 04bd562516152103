"""Topologies, the symmetric weight matrix, and its spectral admissibility."""

import numpy as np
import pytest

from dagopt.errors import DisconnectedTopology, InfeasibleDegree, SpectralViolation
from dagopt.network import (
    Topology,
    WeightMatrix,
    build_weight_matrix,
    complete_topology,
    generate_k_regular,
    load_edgelist,
    ring_topology,
    save_edgelist,
    validate_assumption2,
)


def neighbour_loop(A, v):
    """sum_{j != i} A[i, j] v[j] for every row i, added one neighbour at a
    time in ascending j over the nonzero off-diagonal entries."""
    out = np.zeros_like(v)
    for i in range(A.shape[0]):
        acc = None
        for j in np.flatnonzero(A[i]):
            if j != i:
                term = A[i, j] * v[j]
                acc = term if acc is None else acc + term
        if acc is not None:
            out[i] = acc
    return out


def _star(m):
    return Topology(m, tuple((0, j) for j in range(1, m)))


def _ring_with_chords(m):
    return Topology(m, tuple(sorted(set(ring_topology(m).edges) | {(0, m // 2), (3, m - 5), (5, m - 3)})))


class TestTopologies:
    def test_ring_structure(self):
        topo = ring_topology(6)
        assert topo.m == 6
        assert len(topo.edges) == 6
        assert np.array_equal(topo.degrees(), np.full(6, 2))
        assert topo.is_connected()

    def test_complete_structure(self):
        topo = complete_topology(5)
        assert len(topo.edges) == 10
        assert np.array_equal(topo.degrees(), np.full(5, 4))

    def test_k_regular_degrees_and_connectivity(self):
        topo = generate_k_regular(20, 4, seed=0)
        assert np.array_equal(topo.degrees(), np.full(20, 4))
        assert topo.is_connected()

    def test_k_regular_deterministic_in_seed(self):
        a = generate_k_regular(20, 4, seed=7)
        b = generate_k_regular(20, 4, seed=7)
        assert a.edges == b.edges

    def test_k_regular_parity_rejected(self):
        with pytest.raises(InfeasibleDegree):
            generate_k_regular(5, 3, seed=0)  # m*k odd

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            Topology(3, ((0, 1), (1, 0)))

    def test_edgelist_round_trip(self, tmp_path):
        topo = generate_k_regular(12, 4, seed=3)
        path = tmp_path / "graph.edges"
        save_edgelist(topo, path)
        loaded = load_edgelist(path)
        assert loaded.m == topo.m
        assert set(loaded.edges) == set(topo.edges)


class TestWeightMatrix:
    def test_mixing_matrix_properties(self):
        W = build_weight_matrix(generate_k_regular(20, 4, seed=0), 0.12)
        M = W.matrix
        assert np.allclose(M, M.T)
        # rows of I + W sum to one (W rows sum to zero)
        assert np.allclose(M.sum(axis=1), 0.0, atol=1e-12)
        # off-diagonal entries are the uniform edge weight
        off = M[~np.eye(20, dtype=bool)]
        assert set(np.round(off[off != 0], 12)) == {0.12}
        assert W.w_hat == pytest.approx(0.48)

    def test_eigenvalues_in_open_unit_band(self):
        W = build_weight_matrix(ring_topology(8), 0.2)
        assert W.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert W.eigenvalues[1] < 0.0
        assert W.eigenvalues[-1] > -1.0

    def test_spectral_violation_raised(self):
        # complete graph on 3 nodes with weight 0.6: eigenvalue -1.8 <= -1
        with pytest.raises(SpectralViolation):
            build_weight_matrix(complete_topology(3), 0.6)

    def test_heavy_uniform_weights_rejected_on_4_regular(self):
        # degree-4 graph with edge weight 0.2 drops an eigenvalue below -1;
        # the admissible band forces lighter uniform weights (desk default 0.12).
        with pytest.raises(SpectralViolation):
            build_weight_matrix(generate_k_regular(20, 4, seed=0), 0.2)

    def test_disconnected_rejected(self):
        topo = Topology(4, ((0, 1), (2, 3)))
        with pytest.raises(DisconnectedTopology):
            build_weight_matrix(topo, 0.1)

    def test_certificate_reports_spectral_gap(self):
        W = build_weight_matrix(ring_topology(8), 0.2)
        cert = validate_assumption2(W)
        assert cert.ok
        assert cert.delta2 == pytest.approx(W.eigenvalues[1], rel=1e-12)
        assert cert.violations == ()

    def test_certificate_flags_bad_matrix(self):
        bad = np.array([[0.0, 0.5], [0.4, 0.0]])  # asymmetric
        cert = validate_assumption2(bad)
        assert not cert.ok
        assert cert.violations

    def test_certificate_verdicts_unaffected_by_offdiag(self):
        good = build_weight_matrix(ring_topology(8), 0.2)
        for W in (good, WeightMatrix(matrix=good.matrix)):
            assert validate_assumption2(W) == validate_assumption2(good.matrix)
            assert validate_assumption2(W).ok
        bad = WeightMatrix(matrix=np.array([[-0.5, 0.5], [0.4, -0.4]]))
        assert np.array_equal(bad.offdiag(np.array([[1.0], [2.0]])), [[1.0], [0.4]])
        cert = validate_assumption2(bad)
        assert not cert.ok
        assert cert == validate_assumption2(bad.matrix)


class TestEdgeMixing:
    CASES = {
        "4-regular-m1000": lambda: build_weight_matrix(generate_k_regular(1000, 4, seed=0), 0.12).matrix,
        "star-m12": lambda: build_weight_matrix(_star(12), 0.05).matrix,
        "ring-chords-m16": lambda: build_weight_matrix(_ring_with_chords(16), 0.12).matrix,
        "asymmetric": lambda: np.array([[-0.5, 0.5], [0.4, -0.4]]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_ascending_neighbour_loop(self, case):
        A = self.CASES[case]()
        v = np.random.default_rng(1).standard_normal((A.shape[0], 13))
        assert np.array_equal(WeightMatrix(matrix=A).offdiag(v), neighbour_loop(A, v))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_close_to_dense_product(self, case):
        A = self.CASES[case]()
        v = np.random.default_rng(2).standard_normal((A.shape[0], 5))
        dense = (A - np.diag(np.diag(A))) @ v
        assert np.abs(WeightMatrix(matrix=A).offdiag(v) - dense).max() <= 1e-15 * np.abs(v).max()

    def test_single_agent_mixes_to_zero(self):
        W = WeightMatrix(matrix=np.zeros((1, 1)))
        out = W.offdiag(np.ones((1, 4)))
        assert out.shape == (1, 4) and not out.any()

    def test_diagonal_columns(self):
        W = build_weight_matrix(ring_topology(8), 0.2)
        assert np.array_equal(W.diag[:, 0], np.diag(W.matrix))
        assert np.array_equal(W.one_plus_diag[:, 0], 1.0 + np.diag(W.matrix))
        assert not W.diag.flags.writeable and not W.one_plus_diag.flags.writeable
