"""High-level entity-alignment pipeline.

The paper's Algorithm 1 as a single object: representation learning plus
embedding matching, operating directly on :class:`AlignmentTask` and
returning matched *entity names*.  This is the adoption-grade API — a
downstream user aligns two KGs in three lines::

    pipeline = AlignmentPipeline(RREAEncoder(), create_matcher("CSLS"))
    prediction = pipeline.align(task)
    prediction.pairs                 # [(source name, target name), ...]

The pipeline handles the evaluation protocol details that are easy to
get wrong: slicing to test queries/candidates, fitting learnable
matchers on seed links, mapping local matrix indices back to entity
names, and scoring against the gold links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.base import Matcher, MatchResult
from repro.embedding.base import EmbeddingModel, UnifiedEmbeddings
from repro.eval.metrics import AlignmentMetrics, evaluate_pairs
from repro.index.config import IndexConfig, build_candidates
from repro.kg.pair import AlignmentTask
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.ledger import RunLedger, as_ledger, build_record, fingerprint_payload
from repro.obs.profile import build_profile
from repro.runtime.supervisor import RunSupervisor, SupervisedRun, SupervisorPolicy
from repro.similarity.engine import SimilarityEngine


@dataclass
class AlignmentPrediction:
    """The outcome of one pipeline run on one task."""

    #: Matched (source entity name, target entity name) pairs.
    pairs: list[tuple[str, str]]
    #: Final matcher scores, aligned with :attr:`pairs`.
    scores: np.ndarray
    #: Quality against the task's gold test links.
    metrics: AlignmentMetrics
    #: The raw matcher output (instrumentation included).
    raw: MatchResult
    #: The unified embeddings used (reusable for diagnostics).
    embeddings: UnifiedEmbeddings | None = field(repr=False, default=None)
    #: Supervision record when the pipeline ran under a policy: attempt
    #: ledger, fallback chain, and the triggering error (if degraded).
    supervision: SupervisedRun | None = field(repr=False, default=None)
    #: Observability profile document (spans, events, metric snapshot)
    #: when the pipeline ran with ``align(..., profile=True)``.
    profile: dict | None = field(repr=False, default=None)

    @property
    def degraded(self) -> bool:
        """Whether a degradation-ladder fallback produced this prediction."""
        return self.supervision is not None and self.supervision.degraded

    def as_dict(self) -> dict[str, str]:
        """Source -> target mapping (later pairs win on duplicates)."""
        return {source: target for source, target in self.pairs}


class AlignmentPipeline:
    """Representation learning + embedding matching, end to end.

    ``engine`` optionally supplies a shared
    :class:`~repro.similarity.engine.SimilarityEngine`: the matcher then
    derives S through it (shard worker processes, float32 mode, and a score
    cache that pays off when several pipelines share one embedding space).

    ``policy`` (or a ready-made ``supervisor``) turns the matching stage
    into a supervised, bounded unit of work — deadline, memory budget,
    retry, degradation ladder; see :mod:`repro.runtime.supervisor`.  A
    terminal failure raises its typed :class:`~repro.errors.MatcherError`
    regardless of ``policy.on_error`` (a single-matcher pipeline has no
    partial result to continue with); a successful fallback returns a
    prediction whose :attr:`AlignmentPrediction.supervision` records the
    degradation.

    ``index`` (an :class:`~repro.index.config.IndexConfig`) switches the
    matching stage onto the sparse path: candidate lists are built per
    the config (exact streamed top-k or the IVF index) and the matcher
    runs :meth:`~repro.core.base.Matcher.match_candidates` on them —
    O(n k) working set for the sparse-aware matchers instead of the
    dense n x n score matrix.

    ``ledger`` (a :class:`~repro.obs.ledger.RunLedger` or a path)
    appends one durable, provenance-stamped record per :meth:`align`
    call — the same record shape the experiment runner writes, with the
    task name standing in for the preset and the regime recorded as
    ``"pipeline"``.
    """

    def __init__(
        self,
        encoder: EmbeddingModel,
        matcher: Matcher,
        engine: "SimilarityEngine | None" = None,
        policy: SupervisorPolicy | None = None,
        supervisor: RunSupervisor | None = None,
        index: IndexConfig | None = None,
        ledger: "RunLedger | str | None" = None,
    ) -> None:
        self.encoder = encoder
        self.matcher = matcher
        if engine is not None:
            self.matcher.engine = engine
        if supervisor is None and policy is not None:
            supervisor = RunSupervisor(policy)
        self.supervisor = supervisor
        self.index = index
        self.ledger = as_ledger(ledger)

    def align(
        self,
        task: AlignmentTask,
        embeddings: UnifiedEmbeddings | None = None,
        profile: bool = False,
    ) -> AlignmentPrediction:
        """Run the full pipeline on ``task``.

        ``embeddings`` may be supplied to reuse a previous encoding (e.g.
        when comparing matchers on the same space); otherwise the
        pipeline's encoder is invoked.

        ``profile=True`` records the matching stage under a fresh trace
        recorder and scoped metrics registry and attaches the resulting
        schema-versioned document to :attr:`AlignmentPrediction.profile`.
        """
        if profile:
            with obs_trace.recording() as recorder, obs_metrics.scoped() as registry:
                prediction = self.align(task, embeddings, profile=False)
            prediction.profile = build_profile(
                recorder,
                registry,
                meta={"task": task.name, "matcher": self.matcher.name},
            )
            return prediction
        obs_events.emit(
            "pipeline.align.start", task=task.name, matcher=self.matcher.name
        )
        if embeddings is None:
            embeddings = self.encoder.encode(task)
        if embeddings.source.shape[0] != task.source.num_entities:
            raise ValueError(
                "embeddings rows do not match the task's source entities: "
                f"{embeddings.source.shape[0]} vs {task.source.num_entities}"
            )
        if embeddings.target.shape[0] != task.target.num_entities:
            raise ValueError(
                "embeddings rows do not match the task's target entities: "
                f"{embeddings.target.shape[0]} vs {task.target.num_entities}"
            )

        queries = task.test_query_ids()
        candidates = task.candidate_target_ids()
        if len(queries) == 0 or len(candidates) == 0:
            raise ValueError("task has no test queries or candidates to align")

        self._fit_matcher(task, embeddings)
        source_slice = embeddings.source[queries]
        target_slice = embeddings.target[candidates]
        candidate_set = None
        if self.index is not None:
            candidate_set = build_candidates(
                source_slice,
                target_slice,
                self.index,
                engine=self.matcher.engine,
                metric=getattr(self.matcher, "metric", "cosine"),
            )
        supervision: SupervisedRun | None = None
        if self.supervisor is None:
            if candidate_set is None:
                result = self.matcher.match(source_slice, target_slice)
            else:
                result = self.matcher.match_candidates(candidate_set)
        else:
            supervision = self.supervisor.run(
                self.matcher,
                source_slice,
                target_slice,
                context={"task": task.name},
                candidates=candidate_set,
            )
            if not supervision.ok:
                # The failure still earns its durable record before the
                # typed error propagates — silence is not an outcome.
                self._record(task, supervision=supervision)
                obs_events.emit(
                    "pipeline.align.finish", task=task.name, status="failed",
                    error=type(supervision.error).__name__,
                )
                raise supervision.error
            result = supervision.result

        gold = self._gold(task, queries, candidates)
        metrics = evaluate_pairs(result.pairs, gold)
        named = [
            (
                task.source.entities[queries[row]],
                task.target.entities[candidates[col]],
            )
            for row, col in result.pairs
        ]
        self._record(task, supervision=supervision, metrics=metrics, result=result)
        obs_events.emit(
            "pipeline.align.finish", task=task.name, status="ok",
            f1=metrics.f1, pairs=len(named),
        )
        return AlignmentPrediction(
            pairs=named,
            scores=result.scores.copy(),
            metrics=metrics,
            raw=result,
            embeddings=embeddings,
            supervision=supervision,
        )

    # ------------------------------------------------------------------

    def _record(
        self,
        task: AlignmentTask,
        supervision: SupervisedRun | None,
        metrics: AlignmentMetrics | None = None,
        result: MatchResult | None = None,
    ) -> None:
        """Append one ledger record for this align() call (if opted in)."""
        if self.ledger is None:
            return
        matcher_name = self.matcher.name
        metric = getattr(self.matcher, "metric", "cosine")
        degraded = supervision is not None and supervision.degraded
        if metrics is None:
            status = "failed"
        else:
            status = "degraded" if degraded else "ok"
        error = None
        if supervision is not None and supervision.error is not None:
            error = {
                "type": type(supervision.error).__name__,
                "message": str(supervision.error),
            }
        engine = self.matcher.engine
        self.ledger.append(
            build_record(
                fingerprint=fingerprint_payload(
                    {"task": task.name, "matcher": matcher_name, "metric": metric}
                ),
                preset=task.name,
                regime="pipeline",
                task=task.name,
                matcher=matcher_name,
                # The pipeline has no sweep seed; -1 marks "not applicable".
                seed=-1,
                scale=1.0,
                metric=metric if isinstance(metric, str) else "cosine",
                status=status,
                metrics=None if metrics is None else {
                    "precision": metrics.precision,
                    "recall": metrics.recall,
                    "f1": metrics.f1,
                },
                seconds=result.seconds if result is not None else 0.0,
                peak_bytes=result.peak_bytes if result is not None else 0,
                attempts=len(supervision.attempts) if supervision is not None else 1,
                fallback=supervision.executed if degraded else None,
                chain=list(supervision.chain) if supervision is not None else [],
                error=error,
                engine=engine.cache_info() if engine is not None else None,
                resources=engine.resource_info() if engine is not None else None,
            )
        )

    def _fit_matcher(self, task: AlignmentTask, embeddings: UnifiedEmbeddings) -> None:
        fit = getattr(self.matcher, "fit", None)
        if fit is None:
            return
        seed_pairs = task.seed_index_pairs()
        if len(seed_pairs):
            fit(embeddings.source, embeddings.target, seed_pairs)

    @staticmethod
    def _gold(
        task: AlignmentTask, queries: np.ndarray, candidates: np.ndarray
    ) -> list[tuple[int, int]]:
        query_pos = {int(entity): pos for pos, entity in enumerate(queries)}
        candidate_pos = {int(entity): pos for pos, entity in enumerate(candidates)}
        return [
            (query_pos[int(s)], candidate_pos[int(t)])
            for s, t in task.test_index_pairs()
        ]
