"""Work-grid policies shared by the chunked numpy kernels.

This module centralises the policies every chunked kernel shares:

* :func:`rows_per_chunk` / :func:`row_chunks` — how a row range is cut
  into independent work items (the *chunk grid*);
* :func:`budget_elems` — how a memory budget caps one work item;
* :func:`plan_shards` — the 2-D grid of row x column tiles the
  similarity engine scores.

Determinism contract: a grid is a function of the problem shape and the
chunk policy only, and every tile owns a disjoint part of the output, so
results are bitwise-identical in whatever order the tiles are scored.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default per-chunk working-set budget, in array *elements* (not bytes).
#: At float64 this is 32 MiB per chunk — big enough that BLAS runs at
#: full throughput, small enough that a handful of in-flight chunks fit
#: comfortably in memory alongside the output matrix.
DEFAULT_CHUNK_ELEMS = 2**22

#: How many shard working sets a memory budget must cover: the tile
#: being written, the kernel's intermediate, and headroom for a couple
#: of in-flight shards.  A fixed constant, so the planner's grid stays
#: independent of scheduling.
SHARD_BUDGET_FACTOR = 4


def rows_per_chunk(
    elems_per_row: int,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
    *,
    min_rows: int = 1,
) -> int:
    """Rows per chunk so each chunk's working set is ~``chunk_elems``.

    ``elems_per_row`` is the number of array elements one row of the
    kernel's intermediate materialises (e.g. ``n_target`` for a score
    block, ``n_target * dim`` for a broadcasted difference).  At least
    ``min_rows`` rows are always returned so progress is guaranteed.
    """
    if chunk_elems < 1:
        raise ValueError(f"chunk_elems must be >= 1, got {chunk_elems}")
    return max(min_rows, chunk_elems // max(1, elems_per_row))


def budget_elems(
    memory_budget: int | None,
    itemsize: int = 8,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
) -> int:
    """Elements one work item may materialise: ``chunk_elems``, capped at
    ``memory_budget / SHARD_BUDGET_FACTOR`` bytes when a budget is set.

    The one budget rule of the shard grid (:func:`plan_shards`) and the
    row-chunked top-k scan.
    """
    if memory_budget is None:
        return chunk_elems
    if memory_budget < 1:
        raise ValueError(f"memory_budget must be >= 1 byte, got {memory_budget}")
    return min(chunk_elems, max(1, memory_budget // (SHARD_BUDGET_FACTOR * max(1, itemsize))))


def row_chunks(n_rows: int, chunk_rows: int) -> list[slice]:
    """Cut ``range(n_rows)`` into consecutive slices of ``chunk_rows``."""
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    return [
        slice(start, min(start + chunk_rows, n_rows))
        for start in range(0, n_rows, chunk_rows)
    ]


@dataclass(frozen=True)
class Shard:
    """One row x column tile of a 2-D problem.

    A shard owns a disjoint rectangle of the output, so shards can be
    scored in any order without synchronisation.
    """

    rows: slice
    cols: slice

    @property
    def shape(self) -> tuple[int, int]:
        """(n_rows, n_cols) of this tile."""
        return (self.rows.stop - self.rows.start, self.cols.stop - self.cols.start)

    @property
    def elems(self) -> int:
        """Output elements this tile materialises."""
        n_rows, n_cols = self.shape
        return n_rows * n_cols


def plan_shards(
    n_rows: int,
    n_cols: int,
    *,
    chunk_rows: int | None = None,
    chunk_cols: int | None = None,
    memory_budget: int | None = None,
    itemsize: int = 8,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
) -> list[Shard]:
    """Cut an ``n_rows x n_cols`` problem into a deterministic shard grid.

    2-D generalisation of :func:`row_chunks`: when a row band alone would
    blow the working-set budget (very wide targets), columns are split
    too.  ``memory_budget`` (bytes) caps the per-shard working set at
    ``memory_budget / SHARD_BUDGET_FACTOR``; without it the element
    budget ``chunk_elems`` applies.  Explicit ``chunk_rows`` /
    ``chunk_cols`` override the derived tile sides.

    Same determinism contract as the 1-D grid: the plan is a function of
    the problem shape and this policy only, and shards are emitted in
    row-major order.
    """
    if n_rows < 0 or n_cols < 0:
        raise ValueError(f"shape must be non-negative, got ({n_rows}, {n_cols})")
    shard_elems = budget_elems(memory_budget, itemsize, chunk_elems)
    if n_rows == 0 or n_cols == 0:
        return []
    cols_per = chunk_cols if chunk_cols is not None else min(n_cols, shard_elems)
    rows_per = chunk_rows if chunk_rows is not None else max(1, shard_elems // cols_per)
    return [
        Shard(rows, cols)
        for rows in row_chunks(n_rows, rows_per)
        for cols in row_chunks(n_cols, cols_per)
    ]
