"""Process-backed shard execution over ``multiprocessing.shared_memory``.

The thread backend is the right default: numpy/BLAS kernels release the
GIL, so threads scale without copying anything.  A process pool earns
its keep only when the GIL-holding share of a shard (fancy indexing,
Python-level prep) dominates, or when the platform's BLAS refuses to
run concurrently — so the engine routes to this module only above a
size threshold and on explicit request.

Determinism: both backends execute :func:`score_shard` — the same
per-shard math — over the same planner grid, and each shard writes a
disjoint output tile.  Metric preparation is row-independent (cosine
normalisation, squared norms), so a shard's block depends only on its
own rows and columns, never on the executor.  Scores are therefore
bitwise-identical across worker counts *and* across thread/process
backends.

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
from repro.similarity.metrics import prepare_metric
from repro.utils.parallel import DEFAULT_CHUNK_ELEMS, Shard

#: Output elements below which the engine never routes to processes:
#: pool spawn plus three shared-memory copies cost more than just
#: scoring this many elements on threads.
PROCESS_MIN_ELEMS = 2**22


@dataclass(frozen=True)
class _ShmSpec:
    """Enough to re-open one shared array from a worker process."""

    name: str
    shape: tuple[int, int]
    dtype: str


def score_shard(
    source: np.ndarray,
    target: np.ndarray,
    metric: str,
    shard: Shard,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
) -> np.ndarray:
    """Score one shard: ``source[shard.rows]`` against ``target[shard.cols]``.

    The single definition of per-shard math, shared by the thread and
    process backends — which is what makes backend choice invisible to
    the numbers.
    """
    kernel = prepare_metric(
        metric, source[shard.rows], target[shard.cols], chunk_elems=chunk_elems
    )
    return kernel(slice(0, shard.rows.stop - shard.rows.start))


# -- worker side -------------------------------------------------------

#: Per-worker-process attachment cache: segment name -> open handle.
#: Attaching is a syscall + mmap; shards from one computation share the
#: same three segments, so caching pays immediately.  Stale entries are
#: pruned at the start of each task so segments from a previous
#: computation do not pin pages for the life of the pool.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach(spec: _ShmSpec) -> np.ndarray:
    segment = _ATTACHED.get(spec.name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=spec.name)
        _ATTACHED[spec.name] = segment
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)


def _prune_attachments(keep: frozenset[str]) -> None:
    for name in [name for name in _ATTACHED if name not in keep]:
        _ATTACHED.pop(name).close()


def _run_shard(
    task: tuple[_ShmSpec, _ShmSpec, _ShmSpec, str, int, Shard],
) -> float:
    """Worker entry point: score one shard, write its tile, return seconds."""
    source_spec, target_spec, out_spec, metric, chunk_elems, shard = task
    _prune_attachments(frozenset((source_spec.name, target_spec.name, out_spec.name)))
    started = time.perf_counter()
    source = _attach(source_spec)
    target = _attach(target_spec)
    out = _attach(out_spec)
    out[shard.rows, shard.cols] = score_shard(source, target, metric, shard, chunk_elems)
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
