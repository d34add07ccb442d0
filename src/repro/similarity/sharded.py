"""Process-backed shard execution over ``multiprocessing.shared_memory``.

Scoring in the calling thread is the right default: it copies nothing
and spawns nothing.  A process pool earns its keep only when several
cores are free and the problem is large, so the engine routes here only
when ``workers > 1``, the plan has more than one shard and the problem
reaches a size threshold.

Determinism: each worker prepares the metric over the full source and
target once per computation — exactly the preparation the engine makes
in process — and scores its shards with that kernel's ``(rows, cols)``
tiles.  Each shard writes a disjoint output tile, so scores are
bitwise-identical to the in-process loop over the same plan, at every
worker count.

Mechanics: the parent copies source, target, and the output buffer into
``multiprocessing.shared_memory`` segments once per computation; workers
attach by name (cached per process, pruned between computations), score
their shard, and write the tile in place.  Only shard descriptors cross
the pipe.  The parent copies the output out and unlinks every segment
before returning, so no shared memory outlives a call.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import WorkerCrashedError
from repro.similarity.metrics import BlockKernel, prepare_metric
from repro.utils.parallel import DEFAULT_CHUNK_ELEMS, Shard

#: Output elements below which the engine never routes to processes:
#: pool spawn plus three shared-memory copies cost more than just
#: scoring this many elements in the calling thread.
PROCESS_MIN_ELEMS = 2**22


@dataclass(frozen=True)
class _ShmSpec:
    """Enough to re-open one shared array from a worker process."""

    name: str
    shape: tuple[int, int]
    dtype: str


# -- worker side -------------------------------------------------------

#: Per-worker-process attachment cache: segment name -> open handle.
#: Attaching is a syscall + mmap; shards from one computation share the
#: same three segments, so caching pays immediately.  Stale entries are
#: pruned at a worker's first task of each computation so segments from
#: a previous computation do not pin pages for the life of the pool.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach(spec: _ShmSpec) -> np.ndarray:
    segment = _ATTACHED.get(spec.name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=spec.name)
        _ATTACHED[spec.name] = segment
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)


#: Per-worker-process prepared kernel of the current computation, keyed
#: by its segment names, metric and chunk budget: a worker prepares the
#: metric once per computation, not once per shard.
_KERNEL: dict[tuple[str, str, str, int], BlockKernel] = {}


def _prune_attachments(keep: frozenset[str]) -> None:
    for name in [name for name in _ATTACHED if name not in keep]:
        _ATTACHED.pop(name).close()


def _run_shard(
    task: tuple[_ShmSpec, _ShmSpec, _ShmSpec, str, int, Shard],
) -> float:
    """Worker entry point: score one shard, write its tile, return seconds."""
    source_spec, target_spec, out_spec, metric, chunk_elems, shard = task
    started = time.perf_counter()
    key = (source_spec.name, target_spec.name, metric, chunk_elems)
    kernel = _KERNEL.get(key)
    if kernel is None:
        # Drop the last computation's kernel first: it may hold views
        # into the segments about to be closed.
        _KERNEL.clear()
        _prune_attachments(
            frozenset((source_spec.name, target_spec.name, out_spec.name))
        )
        kernel = _KERNEL[key] = prepare_metric(
            metric, _attach(source_spec), _attach(target_spec), chunk_elems
        )
    out = _attach(out_spec)
    out[shard.rows, shard.cols] = kernel(shard.rows, shard.cols)
    return time.perf_counter() - started


# -- parent side -------------------------------------------------------


def _share(array: np.ndarray) -> tuple[shared_memory.SharedMemory, _ShmSpec]:
    segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    return segment, _ShmSpec(segment.name, tuple(array.shape), array.dtype.name)


def process_sharded_similarity(
    source: np.ndarray,
    target: np.ndarray,
    metric: str,
    shards: list[Shard],
    *,
    pool,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
) -> tuple[np.ndarray, list[float]]:
    """Score every shard on ``pool`` (a process pool); return (S, seconds).

    ``seconds`` holds per-shard worker-side wall time in shard order, for
    the caller to emit as trace events.  All shared segments are created
    and unlinked here — including when a worker dies mid-shard — so no
    shared memory ever outlives a call.  A dead worker (SIGKILL, OOM
    kill: the executor reports a broken pool rather than hanging on
    results that cannot arrive) surfaces as a typed
    :class:`~repro.errors.WorkerCrashedError` carrying whatever exit
    codes the pool still knows.  So does an ``OSError`` raised while the
    pool respawns a worker (``handle is closed`` from a dead worker's
    pipe), but only when the pool holds a dead worker; any other
    ``OSError`` propagates unchanged.
    """
    n_source, n_target = source.shape[0], target.shape[0]
    segments: list[shared_memory.SharedMemory] = []
    try:
        source_segment, source_spec = _share(source)
        segments.append(source_segment)
        target_segment, target_spec = _share(target)
        segments.append(target_segment)
        out_nbytes = max(1, n_source * n_target * source.dtype.itemsize)
        out_segment = shared_memory.SharedMemory(create=True, size=out_nbytes)
        segments.append(out_segment)
        out_spec = _ShmSpec(out_segment.name, (n_source, n_target), source.dtype.name)
        tasks = [
            (source_spec, target_spec, out_spec, metric, chunk_elems, shard)
            for shard in shards
        ]
        try:
            seconds = list(pool.map(_run_shard, tasks))
        except (BrokenExecutor, OSError) as error:
            exitcodes = _dead_exitcodes(pool)
            if not isinstance(error, BrokenExecutor) and not exitcodes:
                raise
            raise WorkerCrashedError(
                f"shard worker process died mid-computation "
                f"({len(shards)} shards in flight"
                + (f", worker exit codes {exitcodes}" if exitcodes else "")
                + f"): {error}",
                backend="process",
                exitcodes=exitcodes,
            ) from error
        out_view = np.ndarray(
            (n_source, n_target), dtype=source.dtype, buffer=out_segment.buf
        )
        result = out_view.copy()
    finally:
        for segment in segments:
            segment.close()
            segment.unlink()
    return result, seconds


def _dead_exitcodes(pool) -> tuple[int, ...]:
    """Best-effort nonzero exit codes of a broken pool's dead workers.

    ``ProcessPoolExecutor`` keeps its worker ``Process`` objects in the
    private ``_processes`` map until shutdown; other pool types simply
    yield no codes.
    """
    try:
        processes = getattr(pool, "_processes", None) or {}
        return tuple(
            process.exitcode
            for process in list(processes.values())
            if process.exitcode not in (None, 0)
        )
    except Exception:  # pragma: no cover - purely diagnostic path
        return ()
