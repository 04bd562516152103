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


def legacy_generate_k_regular(m, k, seed):
    """The pairing model one pair at a time: the reference for
    ``generate_k_regular``'s array-based rejection, drawing the same shuffles."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(1000):
        stubs = np.repeat(np.arange(m), k)
        rng.shuffle(stubs)
        edges = set()
        for a, b in stubs.reshape(-1, 2):
            a, b = int(a), int(b)
            e = (a, b) if a < b else (b, a)
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            adj = Topology(m, tuple(edges)).adjacency
            seen, stack = {0}, [0]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) == m:
                return tuple(sorted(edges))
    raise InfeasibleDegree("no simple connected draw")


def dense_weight_matrix(topology, edge_weight):
    """-edge_weight times the graph Laplacian, filled one edge at a time."""
    W = np.zeros((topology.m, topology.m))
    for i, j in topology.edges:
        W[i, j] = W[j, i] = edge_weight
    np.fill_diagonal(W, -W.sum(axis=1))
    return W


def _star(m):
    return Topology(m, tuple((0, j) for j in range(1, m)))


def _path(m):
    return Topology(m, tuple((i, i + 1) for i in range(m - 1)))


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

    @pytest.mark.parametrize("m, k, seed", [(10, 4, 0), (10, 4, 1), (10, 4, 2), (10, 4, 3), (10, 4, 4), (20, 4, 0),
                                            (50, 3, 1), (12, 5, 2), (1000, 4, 0), (1000, 4, 7)])
    def test_k_regular_equals_pairwise_rejection(self, m, k, seed):
        assert generate_k_regular(m, k, seed).edges == legacy_generate_k_regular(m, k, seed)

    @pytest.mark.parametrize("topo, ecc", [(ring_topology(8), 4), (_path(5), 4), (_star(12), 1),
                                           (Topology(1, ()), 0), (Topology(4, ((0, 1), (2, 3))), None),
                                           (Topology(0, ()), None)])
    def test_eccentricity_of_agent_zero(self, topo, ecc):
        assert topo.eccentricity() == ecc
        assert topo.is_connected() == (ecc is not None)

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
        eig = np.sort(np.linalg.eigvalsh(W.matrix))[::-1]
        assert eig[0] == pytest.approx(0.0, abs=1e-12)
        assert eig[1] < 0.0
        assert eig[-1] > -1.0

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

    # the degree bound is tight on the ring (lambda_max = 4 = 2 + 2); complete
    # graphs from m = 6 at 0.12 and near 1 / m, and 0.2 on degree 4, need the
    # dense solve for delta_m; the path at m=200 needs it for delta_2
    # (2 ecc(0) = 398 = 2 diam)
    SPECTRAL_CASES = (
        [("ring-8", ring_topology(8), w) for w in (0.2, 0.25 - 1e-12, 0.3)]
        + [(f"complete-{m}", complete_topology(m), w) for m in range(3, 11) for w in (0.12, 1 / m - 1e-6, 1 / m + 1e-6)]
        + [("4-regular-20", generate_k_regular(20, 4, seed=0), w) for w in (0.12, 0.2)]
        + [("star-12", _star(12), 0.05), ("path-200", _path(200), 1e-5), ("path-200", _path(200), 1e-12)]
    )

    @pytest.mark.parametrize("name, topo, weight", SPECTRAL_CASES, ids=[f"{c[0]}-{c[2]!r}" for c in SPECTRAL_CASES])
    def test_verdict_equals_dense_certificate(self, name, topo, weight):
        dense = dense_weight_matrix(topo, weight)
        if validate_assumption2(dense).ok:
            assert np.array_equal(build_weight_matrix(topo, weight).matrix, dense)
        else:
            with pytest.raises(SpectralViolation):
                build_weight_matrix(topo, weight)

    def test_certified_without_the_dense_solve(self, monkeypatch):
        topo = generate_k_regular(1000, 4, seed=0)
        dense = dense_weight_matrix(topo, 0.12)

        def refuse(_):
            raise AssertionError("dense eigen-solve called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert np.array_equal(build_weight_matrix(topo, 0.12).matrix, dense)

    @pytest.mark.parametrize("weight", [0.0, -0.1, np.inf, np.nan])
    def test_bad_edge_weight_raises_value_error(self, weight):
        with pytest.raises(ValueError, match="edge_weight"):
            build_weight_matrix(ring_topology(6), weight)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_edge_weight_is_a_spectral_violation(self):
        # the diagonal -2e308 overflows to -inf; a dense solve would not converge
        with pytest.raises(SpectralViolation, match="overflows"):
            build_weight_matrix(ring_topology(6), 1e308)

    def test_certificate_reports_spectral_gap(self):
        W = build_weight_matrix(ring_topology(8), 0.2)
        cert = validate_assumption2(W)
        assert cert.ok
        assert cert.delta2 == pytest.approx(np.sort(np.linalg.eigvalsh(W.matrix))[-2], rel=1e-12)
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
