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

    def test_offdiag_built_once_and_read_only(self):
        W = build_weight_matrix(generate_k_regular(20, 4, seed=0), 0.12)
        off = W.offdiag()
        assert W.offdiag() is off
        with pytest.raises(ValueError):
            off[0, 1] = 1.0
        expected = W.matrix.copy()
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(off, expected)
        assert off.flags.c_contiguous

    def test_certificate_verdicts_unaffected_by_offdiag(self):
        good = build_weight_matrix(ring_topology(8), 0.2)
        for W in (good, WeightMatrix(matrix=good.matrix)):
            assert validate_assumption2(W) == validate_assumption2(good.matrix)
            assert validate_assumption2(W).ok
        bad = WeightMatrix(matrix=np.array([[-0.5, 0.5], [0.4, -0.4]]))
        assert np.array_equal(bad.offdiag(), [[0.0, 0.5], [0.4, 0.0]])
        cert = validate_assumption2(bad)
        assert not cert.ok
        assert cert == validate_assumption2(bad.matrix)
