"""Mixing-matrix construction and validation.

The mixing matrix W has w_ij = edge_weight > 0 on edges, zero off-network,
and w_ii = -sum_{j in N_i} w_ij, so both row and column sums vanish and
I + W is doubly stochastic whenever edge_weight * max_degree <= 1.  Its
eigenvalues must satisfy -1 < delta_m <= ... <= delta_2 < delta_1 = 0 with
a simple zero eigenvalue (connected network).

Mixing costs O(edges): each agent combines only its neighbours' rows,
through a neighbour table built once per matrix.  The spectral certificate
also costs O(edges) for the uniform-weight matrix W = -edge_weight * L (L the
graph Laplacian), through two classical bounds on L's spectrum:

- lambda_max(L) <= max over edges ij of d_i + d_j (Anderson and Morley,
  "Eigenvalues of the Laplacian of a graph", Linear and Multilinear Algebra
  1985) bounds delta_m = -edge_weight * lambda_max(L) from below;
- a(G) >= 4 / (m * diam) for a connected graph (Mohar, "Eigenvalues,
  diameter, and mean distance in graphs", Graphs and Combinatorics 1991),
  with diam <= 2 * ecc(0) from one breadth-first search, bounds
  delta_2 = -edge_weight * a(G) from above.

Only an input that either bound cannot decide pays for the dense m x m
eigen-solve.  ``validate_assumption2`` stays dense: it is the diagnostic that
checks any given matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedTopology, InfeasibleDegree, SpectralViolation

_SPECTRAL_TOL = 1e-9
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Topology:
    """Undirected simple graph over m agents."""

    m: int
    edges: tuple[tuple[int, int], ...]  # sorted (i, j) with i < j

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.m):
                raise ValueError(f"bad edge ({i}, {j}) for m={self.m}")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")

    @property
    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.m)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    @property
    def edge_index(self) -> np.ndarray:
        """The edges as an (E, 2) integer array, in ``edges`` order."""
        return np.array(self.edges, dtype=np.intp).reshape(-1, 2)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_index.ravel(), minlength=self.m)

    def eccentricity(self) -> int | None:
        """Hop distance from agent 0 to the agent farthest from it, by one
        breadth-first search; None when some agent cannot be reached."""
        if self.m == 0:
            return None
        adj = self.adjacency
        seen = [False] * self.m
        seen[0] = True
        frontier, depth, reached = [0], -1, 1
        while frontier:
            depth += 1
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        nxt.append(u)
            frontier = nxt
            reached += len(nxt)
        return depth if reached == self.m else None

    def is_connected(self) -> bool:
        return self.eccentricity() is not None


@dataclass(frozen=True)
class WeightMatrix:
    """Mixing matrix and its neighbour table.

    At construction the off-diagonal nonzeros of ``matrix`` become a padded
    neighbour table: slot k holds, for every agent, its k-th neighbour in
    ascending column order and that neighbour's weight; an agent with fewer
    neighbours is padded with itself at weight 0.  ``diag`` and
    ``one_plus_diag`` are the (m, 1) columns of w_ii and 1 + w_ii."""

    matrix: np.ndarray
    w_hat: float = field(default=None)  # min_i |w_ii|
    diag: np.ndarray = field(init=False, repr=False, compare=False)
    one_plus_diag: np.ndarray = field(init=False, repr=False, compare=False)
    _nbr: np.ndarray = field(init=False, repr=False, compare=False)  # (slots, m)
    _wgt: np.ndarray = field(init=False, repr=False, compare=False)  # (slots, m, 1)

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        support = (A != 0) & ~np.eye(self.m, dtype=bool)
        rows, cols = np.divmod(np.flatnonzero(support), self.m)  # row-major: columns ascend
        slot = np.arange(rows.size) - np.searchsorted(rows, rows)  # rank within the row
        # at least one slot, so that an edgeless W (m = 1) mixes to zeros
        nbr = np.tile(np.arange(self.m), (int(slot.max(initial=0)) + 1, 1))
        wgt = np.zeros(nbr.shape + (1,))
        nbr[slot, rows], wgt[slot, rows, 0] = cols, A[rows, cols]
        diag = np.diag(A)[:, None].copy()
        for name, value in (("diag", diag), ("one_plus_diag", 1.0 + diag), ("_nbr", nbr), ("_wgt", wgt)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def offdiag(self, v: np.ndarray) -> np.ndarray:
        """sum_{j != i} w_ij v_j for every agent i, from the (m, d) block v,
        added slot by slot so that the summation order is fixed."""
        terms = v.take(self._nbr, axis=0)
        terms *= self._wgt
        acc = terms[0]
        for k in range(1, len(terms)):
            acc += terms[k]
        return acc


def ring_topology(m: int) -> Topology:
    if m < 3:
        raise ValueError("ring needs m >= 3")
    edges = tuple(sorted((i, (i + 1) % m) if i < (i + 1) % m else ((i + 1) % m, i) for i in range(m)))
    return Topology(m, edges)


def complete_topology(m: int) -> Topology:
    edges = tuple((i, j) for i in range(m) for j in range(i + 1, m))
    return Topology(m, edges)


def generate_k_regular(m: int, k: int, seed: int) -> Topology:
    """Random k-regular simple connected graph via the pairing model.

    Stubs are shuffled and paired; draws with self-loops, multi-edges, or a
    disconnected result are rejected and retried (bounded retries)."""
    if m * k % 2 != 0:
        raise InfeasibleDegree(f"m*k must be even, got m={m}, k={k}")
    if not (0 < k < m):
        raise InfeasibleDegree(f"need 0 < k < m, got m={m}, k={k}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    stubs = np.repeat(np.arange(m), k)
    for _ in range(1000):
        a, b = rng.permutation(stubs).reshape(-1, 2).T
        if (a == b).any():  # a self-loop
            continue
        keys = np.minimum(a, b) * m + np.maximum(a, b)
        keys.sort()  # sorted keys give sorted edges
        if (keys[1:] == keys[:-1]).any():  # a multi-edge
            continue
        lo, hi = np.divmod(keys, m)
        top = Topology(m, tuple(zip(lo.tolist(), hi.tolist())))
        if top.is_connected():
            return top
    raise InfeasibleDegree(f"could not generate a simple connected {k}-regular graph on {m} vertices")


def build_weight_matrix(topology: Topology, edge_weight: float) -> WeightMatrix:
    """Uniform-weight mixing matrix for a connected topology.

    Certifies -1 < delta_m and delta_2 < 0 from the degrees and one
    breadth-first search (module docstring); runs the dense eigen-solve only
    when either bound cannot decide.  Requires edge_weight * max_degree < 1
    so that 1 + w_ii > 0."""
    ecc = topology.eccentricity()
    if ecc is None:
        raise DisconnectedTopology(f"topology on {topology.m} agents is not connected")
    if not (0 < edge_weight < np.inf):
        raise ValueError(f"edge_weight must be finite and > 0, got {edge_weight}")
    m = topology.m
    e = topology.edge_index
    W = np.zeros((m, m))
    W[e[:, 0], e[:, 1]] = edge_weight
    W[e[:, 1], e[:, 0]] = edge_weight
    np.fill_diagonal(W, -W.sum(axis=1))
    diag = np.diag(W)
    if diag.min() == -np.inf:  # delta_m <= min_i w_ii = -inf
        raise SpectralViolation(f"edge_weight {edge_weight:.12g} overflows a diagonal weight to -inf")
    deg = topology.degrees()
    # Anderson-Morley for delta_m; Mohar with diam <= 2 ecc(0) for delta_2
    band = edge_weight * float((deg[e[:, 0]] + deg[e[:, 1]]).max(initial=0)) < 1.0 - _SPECTRAL_TOL
    gap = m == 1 or edge_weight * 4.0 / (m * 2 * ecc) > _SPECTRAL_TOL
    if not (band and gap):
        eig = np.sort(np.linalg.eigvalsh(W))[::-1]
        if eig[-1] <= -1.0 + _SPECTRAL_TOL:
            raise SpectralViolation(f"smallest eigenvalue {eig[-1]:.12g} <= -1 (tolerance {_SPECTRAL_TOL})")
        if m > 1 and eig[1] >= -_SPECTRAL_TOL:
            raise SpectralViolation(f"second-largest eigenvalue {eig[1]:.12g} is not strictly negative")
    w_hat = float(np.min(np.abs(diag))) if m > 1 else 0.0
    return WeightMatrix(matrix=W, w_hat=w_hat)


@dataclass(frozen=True)
class Certificate:
    ok: bool
    delta2: float | None
    violations: tuple[str, ...]


def validate_assumption2(W: np.ndarray | WeightMatrix) -> Certificate:
    """Check row/column sums, support symmetry and the eigenvalue band.

    Returns a structured certificate; never raises on a bad matrix."""
    A = W.matrix if isinstance(W, WeightMatrix) else np.asarray(W, dtype=float)
    violations: list[str] = []
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return Certificate(False, None, ("matrix is not square",))
    m = A.shape[0]
    row = np.abs(A.sum(axis=1)).max()
    col = np.abs(A.sum(axis=0)).max()
    if row > _SUM_TOL:
        violations.append(f"W1 = 0 violated: max |row sum| = {row:.3e}")
    if col > _SUM_TOL:
        violations.append(f"1'W = 0' violated: max |column sum| = {col:.3e}")
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        violations.append("negative off-diagonal entry")
    if np.any((off > 0) != (off.T > 0)):
        violations.append("support is not symmetric")
    # eigenvalue band (-1, 0] with a simple zero eigenvalue
    sym = np.allclose(A, A.T, atol=1e-12)
    eig = np.sort(np.linalg.eigvalsh(A) if sym else np.real(np.linalg.eigvals(A)))[::-1]
    if abs(eig[0]) > _SPECTRAL_TOL:
        violations.append(f"largest eigenvalue {eig[0]:.3e} != 0")
    if eig[-1] <= -1.0 + _SPECTRAL_TOL:
        violations.append(f"smallest eigenvalue {eig[-1]:.6g} <= -1")
    delta2 = float(eig[1]) if m > 1 else None
    if m > 1 and eig[1] >= -_SPECTRAL_TOL:
        violations.append("zero eigenvalue is not simple (delta_2 >= 0)")
    if violations:
        return Certificate(False, delta2, tuple(violations))
    return Certificate(True, delta2, ())


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------


def save_edgelist(topology: Topology, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# m {topology.m}\n")
        for i, j in topology.edges:
            fh.write(f"{i} {j}\n")


def load_edgelist(path) -> Topology:
    """Edge-list text file: one 'i j' pair per line, 0-indexed.

    An optional '# m <count>' header pins the vertex count; otherwise it is
    inferred as max index + 1."""
    edges = []
    m = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "m":
                    m = int(parts[1])
                continue
            a, b = line.split()
            i, j = int(a), int(b)
            if i == j:
                raise ValueError(f"self-loop {i} {j}")
            edges.append((min(i, j), max(i, j)))
    if not edges:
        raise ValueError("empty edge list")
    if m is None:
        m = max(max(e) for e in edges) + 1
    return Topology(m, tuple(sorted(set(edges))))
