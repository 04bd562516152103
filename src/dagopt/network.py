"""Mixing-matrix construction and validation.

The mixing matrix W has w_ij = edge_weight > 0 on edges, zero off-network,
and w_ii = -sum_{j in N_i} w_ij, so both row and column sums vanish and
I + W is doubly stochastic whenever edge_weight * max_degree <= 1.  Its
eigenvalues must satisfy -1 < delta_m <= ... <= delta_2 < delta_1 = 0 with
a simple zero eigenvalue (connected network).  The privacy budget reads
w_hat = min_i |w_ii| (0 for a single agent).

W is never dense on the run path: ``build_weight_matrix`` builds the
neighbour table and the diagonal straight from the edge list, and mixing
costs O(edges), each agent combining only its neighbours' rows.  The dense
W is made only on request (``WeightMatrix.matrix``): for the tests, for
``validate_assumption2``, which the build falls back to (below).
The spectral certificate also costs O(edges) for the uniform-weight matrix
W = -edge_weight * L (L the graph Laplacian), through two classical bounds
on L's spectrum:

- lambda_max(L) <= max over edges ij of d_i + d_j (Anderson and Morley,
  "Eigenvalues of the Laplacian of a graph", Linear and Multilinear Algebra
  1985) bounds delta_m = -edge_weight * lambda_max(L) from below;
- a(G) >= 4 / (m * diam) for a connected graph (Mohar, "Eigenvalues,
  diameter, and mean distance in graphs", Graphs and Combinatorics 1991),
  with diam <= 2 * ecc(0) from one breadth-first search, bounds
  delta_2 = -edge_weight * a(G) from above.

Only an input that either bound cannot decide pays for the dense m x m
eigen-solve, through ``validate_assumption2``, whose violations the refusal
reports.  ``validate_assumption2`` stays dense: it is the diagnostic that
checks any given matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DagoptError

_SPECTRAL_TOL = 1e-9
_SUM_TOL = 1e-12
_ROW_BLOCK = 1 << 16  # elements per dense block of rows in the diagonal's sum


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

    @cached_property
    def edge_index(self) -> np.ndarray:
        """The edges as a read-only (E, 2) integer array in ``edges`` order, made once."""
        e = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        e.flags.writeable = False
        return e

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_index.ravel(), minlength=self.m)

    def eccentricity(self) -> int | None:
        """Hop distance from agent 0 to the agent farthest from it; None when
        some agent cannot be reached."""
        return self._eccentricity

    @cached_property
    def _eccentricity(self) -> int | None:
        """``eccentricity`` by one breadth-first search, made once."""
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


class WeightMatrix:
    """Mixing matrix as a padded neighbour table and a diagonal: W is never
    dense on the run path.

    Slot k of the table holds, for every agent, its k-th neighbour in
    ascending column order and that neighbour's weight; an agent with fewer
    neighbours is padded with itself at weight 0.  ``diag`` and
    ``one_plus_diag`` are the (m, 1) columns of w_ii and 1 + w_ii, and
    ``w_hat`` is min_i |w_ii| (0 for a single agent).  ``from_edges`` builds
    W = -weight * L from an edge list, and ``matrix`` makes the dense W for
    checks off the run path."""

    def __init__(self, m: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, diag: np.ndarray):
        # (rows, cols, vals): the off-diagonal nonzeros in row-major order
        slot = np.arange(rows.size) - np.searchsorted(rows, rows)  # rank within the row
        # at least one slot, so that an edgeless W (m = 1) mixes to zeros
        nbr = np.tile(np.arange(m), (int(slot.max(initial=0)) + 1, 1))
        wgt = np.zeros(nbr.shape + (1,))
        nbr[slot, rows], wgt[slot, rows, 0] = cols, vals
        diag = np.array(diag, dtype=float).reshape(m, 1)
        self.m = m
        self.w_hat = float(np.abs(diag).min()) if m > 1 else 0.0
        for name, value in (("diag", diag), ("one_plus_diag", 1.0 + diag), ("_nbr", nbr), ("_wgt", wgt)):
            value.flags.writeable = False
            setattr(self, name, value)

    @classmethod
    def from_edges(cls, m: int, edge_index: np.ndarray, weight: float) -> WeightMatrix:
        """w_ij = w_ji = weight on every edge and w_ii = -sum_j w_ij.  The row
        sums are taken over dense blocks of rows, so that w_ii has the bits of
        ``-W.sum(axis=1)`` on the dense W; a sum in neighbour order differs in
        the last bit."""
        i, j = edge_index.T
        keys = np.concatenate([i * m + j, j * m + i])
        keys.sort()  # row-major: columns ascend within a row
        rows, cols = np.divmod(keys, m)
        diag = np.empty(m)
        step = max(1, _ROW_BLOCK // max(m, 1))
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            a, b = np.searchsorted(rows, (lo, hi))
            block = np.zeros((hi - lo, m))
            block[rows[a:b] - lo, cols[a:b]] = weight
            np.negative(block.sum(axis=1), out=diag[lo:hi])
        return cls(m, rows, cols, np.full(rows.size, float(weight)), diag)

    @property
    def matrix(self) -> np.ndarray:
        """The dense m x m W, made on each call."""
        A = np.zeros((self.m, self.m))
        A[np.arange(self.m), self._nbr] = self._wgt[..., 0]
        np.fill_diagonal(A, self.diag[:, 0])
        return A

    def offdiag(self, v: np.ndarray) -> np.ndarray:
        """sum_{j != i} w_ij v_j for every agent i, from v stacked (..., m, d):
        a (k, m, d) stack of blocks is mixed in one pass.  The slots are added
        in order, slot 0 first, so that the summation order is fixed and each
        block gets the bits of its own (m, d) call."""
        terms = v.take(self._nbr, axis=-2)  # (..., slots, m, d)
        terms *= self._wgt
        # -0.0 + t is t for every t, a zero's sign included; a start from the
        # add identity +0.0 would turn a sum of -0.0 terms into +0.0
        return np.add.reduce(terms, axis=-3, initial=-0.0)


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
        raise DagoptError(f"m*k must be even, got m={m}, k={k}")
    if not (0 < k < m):
        raise DagoptError(f"need 0 < k < m, got m={m}, k={k}")
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
    raise DagoptError(f"could not generate a simple connected {k}-regular graph on {m} vertices")


def uniform_weights(topology: Topology, edge_weight: float) -> WeightMatrix:
    """The uniform-weight matrix -edge_weight * L (L the graph Laplacian), uncertified."""
    if not (0 < edge_weight < np.inf):
        raise ValueError(f"edge_weight must be finite and > 0, got {edge_weight}")
    W = WeightMatrix.from_edges(topology.m, topology.edge_index, edge_weight)
    if W.diag.min() == -np.inf:  # then delta_m <= min_i w_ii = -inf
        raise DagoptError(f"edge_weight {edge_weight:.12g} overflows a diagonal weight to -inf")
    return W


def build_weight_matrix(topology: Topology, edge_weight: float) -> WeightMatrix:
    """Uniform-weight mixing matrix for a connected topology.

    Certifies -1 < delta_m and delta_2 < 0 from the degrees and one
    breadth-first search (module docstring); runs the dense
    ``validate_assumption2`` only when either bound cannot decide.  Requires
    edge_weight * max_degree < 1 so that 1 + w_ii > 0."""
    ecc = topology.eccentricity()
    if ecc is None:
        raise DagoptError(f"topology on {topology.m} agents is not connected")
    m = topology.m
    e = topology.edge_index
    W = uniform_weights(topology, edge_weight)
    deg = topology.degrees()
    # Anderson-Morley for delta_m; Mohar with diam <= 2 ecc(0) for delta_2
    band = edge_weight * float((deg[e[:, 0]] + deg[e[:, 1]]).max(initial=0)) < 1.0 - _SPECTRAL_TOL
    gap = m == 1 or edge_weight * 4.0 / (m * 2 * ecc) > _SPECTRAL_TOL
    if not (band and gap):
        cert = validate_assumption2(W)
        if not cert.ok:
            raise DagoptError("; ".join(cert.violations))
    return W


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
    if not np.isfinite(A).all():  # no eigen-solve can converge on it
        return Certificate(False, None, ("non-finite entry",))
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


def load_edgelist(path) -> Topology:
    """Edge-list text file: one 'i j' pair per line, 0-indexed.

    An optional '# m <count>' header pins the vertex count; otherwise it is
    inferred as max index + 1.  A malformed file raises ValueError, an
    unreadable one OSError."""
    edges = []
    m = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "m":
                    m = int(parts[1])
                continue
            try:
                i, j = (int(v) for v in line.split())
            except ValueError:
                raise ValueError(f"line {lineno}: expected two vertex indices 'i j', got {line!r}") from None
            if i == j:
                raise ValueError(f"line {lineno}: self-loop {i} {j}")
            edges.append((min(i, j), max(i, j)))
    if not edges:
        raise ValueError("empty edge list")
    if m is None:
        m = max(max(e) for e in edges) + 1
    return Topology(m, tuple(sorted(set(edges))))
