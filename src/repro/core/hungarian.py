"""Embedding matching as the linear assignment problem (paper Sec. 3.5).

``Hun.`` maximises the *sum* of pairwise similarity scores under a hard
1-to-1 constraint — the globally optimal matching when the paper's two
assumptions (isomorphic neighbourhoods, 1-to-1 gold links) hold, and the
strongest performer in the paper's main experiments.

The solver is a from-scratch Jonker-Volgenant-style shortest augmenting
path implementation (the same O(n^3) family as the lapjv code the paper
uses), with an optional scipy backend (`linear_sum_assignment`) used by
the test suite to cross-validate the native solver and available for
callers who prefer the C implementation.

Rectangular inputs are padded to square with a constant worst-case
score; assignments to padded rows/columns are dropped, so on inputs with
more sources than targets the Hungarian matcher naturally *abstains* on
the worst-fitting sources — the dummy-node mechanism the paper applies
under the unmatchable-entity setting (Section 5.1).

:func:`solve_assignment_sparse` is the out-of-core member of the family:
an LAPJVsp-style solver that walks a CSR candidate graph directly, so
optimal assignment survives past the dense memory wall (Table 6's
"Mem." column) — O(n_rows + n_targets) solver state instead of n x n.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.base import MatchResult, PipelineMatcher
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.memory import MemoryTracker
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_score_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.index.candidates import CandidateSet

_BACKENDS = ("native", "scipy")


def solve_assignment_min(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect assignment of a square cost matrix.

    Returns ``assignment`` with ``assignment[row] = column``.  Shortest
    augmenting path with dual potentials; inner loops are vectorised over
    columns, keeping the O(n^3) total but with numpy constants.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be square, got shape {cost.shape}")
    n = cost.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)

    INF = np.inf
    u = np.zeros(n + 1)                       # row potentials (1-based)
    v = np.zeros(n + 1)                       # column potentials (0 = virtual column)
    match_row = np.zeros(n + 1, dtype=np.int64)   # column -> assigned row (0 = free)
    way = np.zeros(n + 1, dtype=np.int64)         # alternating-path predecessors

    for row in range(1, n + 1):
        match_row[0] = row
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            free = ~used
            free[0] = False
            cols = np.flatnonzero(free)
            reduced = cost[i0 - 1, cols - 1] - u[i0] - v[cols]
            better = reduced < minv[cols]
            improving = cols[better]
            minv[improving] = reduced[better]
            way[improving] = j0
            j1 = cols[np.argmin(minv[cols])]
            delta = minv[j1]
            u[match_row[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        # Augment along the alternating path back to the virtual column.
        while j0:
            j_prev = way[j0]
            match_row[j0] = match_row[j_prev]
            j0 = j_prev

    assignment = np.empty(n, dtype=np.int64)
    assignment[match_row[1:] - 1] = np.arange(n)
    return assignment


def solve_assignment_max(
    scores: np.ndarray, backend: str = "native"
) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-score 1-to-1 assignment of a (possibly rectangular) matrix.

    Returns ``(pairs, pair_scores)``; padded assignments are dropped, so
    with ``n_source > n_target`` only ``n_target`` pairs come back.
    """
    scores = check_score_matrix(scores)
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    n_source, n_target = scores.shape

    if backend == "scipy":
        # Imported here, its one use: ``scipy.optimize`` takes 0.3-0.5 s
        # to import, and the serve daemon, which imports this module
        # through ``repro.core``, never solves a dense assignment.
        import scipy.optimize

        rows, cols = scipy.optimize.linear_sum_assignment(scores, maximize=True)
        pairs = np.stack([rows, cols], axis=1)
        return pairs, scores[rows, cols]

    size = max(n_source, n_target)
    worst = float(scores.max())
    cost = np.full((size, size), 0.0)
    cost[:n_source, :n_target] = worst - scores
    assignment = solve_assignment_min(cost)
    rows = np.arange(n_source)
    cols = assignment[:n_source]
    keep = cols < n_target
    pairs = np.stack([rows[keep], cols[keep]], axis=1)
    return pairs, scores[pairs[:, 0], pairs[:, 1]]


@dataclass(frozen=True)
class SparseAssignment:
    """Outcome of the sparse assignment solver.

    ``pairs`` / ``pair_scores`` cover the rows assigned to real columns;
    ``shortfall`` counts rows that could only be matched through their
    dummy arc (no feasible real column remained) and therefore abstain.
    """

    pairs: np.ndarray
    pair_scores: np.ndarray
    shortfall: int


def solve_assignment_sparse(candidates: "CandidateSet") -> SparseAssignment:
    """Maximum-score 1-to-1 assignment on a CSR candidate graph.

    LAPJVsp-style successive shortest augmenting paths: one Dijkstra per
    source row over the *stored* arcs only, with dual potentials keeping
    reduced costs non-negative.  Work is O(sum of augmenting-tree sizes
    x log) and solver state is O(n_rows + n_targets) — the n x n matrix
    is never formed.

    Infeasibility fallback: every row also owns a private dummy column
    priced worse than any ``n_rows + 1`` real arcs combined, so a
    perfect matching always exists on the augmented graph and the solver
    sacrifices score only when cardinality forces it.  Rows that end on
    their dummy abstain and are counted as ``shortfall`` — the sparse
    analogue of the dense solver dropping padded columns.

    On a *complete* candidate graph (k = n_targets) the kept-score total
    equals the dense solver's, because both maximise the same objective;
    pair sets may differ only between equal-total optima (ties).
    """
    indptr = candidates.indptr
    col_ids = candidates.indices
    values = candidates.scores
    n_rows = candidates.n_sources
    n_cols = candidates.n_targets
    empty = SparseAssignment(
        np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.float64), n_rows
    )
    if n_rows == 0:
        return SparseAssignment(empty.pairs, empty.pair_scores, 0)
    if n_cols == 0 or candidates.nnz == 0:
        return empty

    # Max score -> min cost; all reduced costs start non-negative.
    best = float(values.max())
    worst = float(values.min())
    cost = best - values
    dummy_cost = (best - worst + 1.0) * (n_rows + 1)
    total_cols = n_cols + n_rows  # column n_cols + r is row r's dummy

    u = np.zeros(n_rows)
    v = np.zeros(total_cols)
    row_match = np.full(n_rows, -1, dtype=np.int64)
    col_match = np.full(total_cols, -1, dtype=np.int64)
    # Dijkstra state, allocated once and reset via the touched list so a
    # row's cost is O(its tree), not O(n_targets).
    dist = np.full(total_cols, np.inf)
    prev = np.full(total_cols, -1, dtype=np.int64)
    done = np.zeros(total_cols, dtype=bool)

    for r0 in range(n_rows):
        touched: list[int] = []
        finalized: list[int] = []
        heap: list[tuple[float, int]] = []
        entered = {r0: 0.0}  # row -> distance at which it joined the tree

        def relax(row: int, base: float) -> None:
            start, stop = int(indptr[row]), int(indptr[row + 1])
            arcs = col_ids[start:stop]
            lengths = base + cost[start:stop] - u[row] - v[arcs]
            for j, d in zip(arcs.tolist(), lengths.tolist()):
                if not done[j] and d < dist[j]:
                    dist[j] = d
                    prev[j] = row
                    touched.append(j)
                    heapq.heappush(heap, (d, j))
            j = n_cols + row  # the row's private dummy arc
            d = base + dummy_cost - u[row] - v[j]
            if not done[j] and d < dist[j]:
                dist[j] = d
                prev[j] = row
                touched.append(j)
                heapq.heappush(heap, (d, j))

        relax(r0, 0.0)
        sink = -1
        delta = 0.0
        while heap:
            d, j = heapq.heappop(heap)
            if done[j] or d > dist[j]:
                continue  # stale heap entry
            done[j] = True
            finalized.append(j)
            if col_match[j] < 0:
                sink = j
                delta = d
                break
            row = int(col_match[j])
            entered[row] = d
            relax(row, d)
        # r0's own dummy is always free, so a sink always exists.
        assert sink >= 0, "augmenting path search exhausted a feasible graph"

        for j in finalized:
            if j != sink:
                v[j] += dist[j] - delta
        for row, d_entry in entered.items():
            u[row] += delta - d_entry

        j = sink
        while True:
            row = int(prev[j])
            col_match[j] = row
            j, row_match[row] = row_match[row], j
            if row == r0:
                break

        for j in touched:
            dist[j] = np.inf
            prev[j] = -1
            done[j] = False

    matched_rows = np.flatnonzero((row_match >= 0) & (row_match < n_cols))
    pairs = np.stack([matched_rows, row_match[matched_rows]], axis=1)
    pair_scores = np.empty(len(pairs), dtype=np.float64)
    for i, (row, col) in enumerate(pairs):
        ids, row_scores = candidates.row(int(row))
        pair_scores[i] = float(row_scores[np.flatnonzero(ids == col)[0]])
    return SparseAssignment(pairs, pair_scores, n_rows - len(pairs))


class Hungarian(PipelineMatcher):
    """Optimal 1-to-1 assignment over pairwise similarity scores.

    Time O(n^3), space O(n^2) — the slowest-growing but best-performing
    strategy under the 1-to-1 evaluation setting.
    """

    name = "Hun."

    def __init__(self, backend: str = "native", metric: str = "cosine") -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        super().__init__(metric=metric)
        self.backend = backend

    def _decode(
        self, scores: np.ndarray, watch: Stopwatch, memory: MemoryTracker
    ) -> tuple[np.ndarray, np.ndarray]:
        size = max(scores.shape)
        # The padded cost matrix plus the solver's internal working copy
        # (both the native solver and scipy's copy the costs).
        memory.allocate("cost", 2 * size * size * 8)
        pairs, pair_scores = solve_assignment_max(scores, backend=self.backend)
        memory.release("cost")
        return pairs, pair_scores

    def match_candidates(self, candidates: "CandidateSet") -> MatchResult:
        """Optimal assignment directly on the CSR candidate graph.

        No densify: :func:`solve_assignment_sparse` walks the stored
        arcs, so the working set is the candidate arrays plus
        O(n_rows + n_targets) solver state.  Rows the candidate graph
        cannot place abstain (dummy-arc fallback), counted on the
        ``hungarian.sparse.shortfall`` obs metric.  The ``backend``
        setting is a dense-path concern and is ignored here.
        """
        with obs_trace.span(
            "matcher.match", matcher=self.name, metric="sparse-candidates"
        ):
            watch = Stopwatch()
            memory = MemoryTracker()
            memory.allocate("candidates", candidates.nbytes)
            solver_state = (candidates.n_sources + candidates.n_targets) * 5 * 8
            memory.allocate("solver", solver_state + candidates.nnz * 8)
            with watch.measure("decode"), obs_trace.span(
                "matcher.assign", matcher=self.name, sparse=True
            ):
                assignment = solve_assignment_sparse(candidates)
            memory.release("solver")
            registry = obs_metrics.get_metrics()
            registry.inc("sparse.matches")
            registry.inc("sparse.entries", candidates.nnz)
            registry.inc("hungarian.sparse.solves")
            if assignment.shortfall:
                registry.inc("hungarian.sparse.shortfall", assignment.shortfall)
            return MatchResult(
                assignment.pairs,
                assignment.pair_scores,
                stopwatch=watch,
                memory=memory,
            )
