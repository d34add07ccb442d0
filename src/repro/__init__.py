"""EntMatcher reproduction: matching knowledge graphs in entity embedding spaces.

A from-scratch Python reproduction of the system and experimental study
of Zeng et al., "Matching Knowledge Graphs in Entity Embedding Spaces:
An Experimental Study" (ICDE 2024 / TKDE).

The library mirrors the paper's pipeline:

* :mod:`repro.kg` — knowledge-graph data model and alignment tasks;
* :mod:`repro.datasets` — synthetic benchmark generators mirroring
  DBP15K / SRPRS / DWY100K / DBP15K+ / FB_DBP_MUL;
* :mod:`repro.embedding` — representation-learning substrate (GCN, RREA,
  name encoder, fusion, calibrated oracle);
* :mod:`repro.similarity` — pairwise score computation;
* :mod:`repro.core` — the seven embedding-matching algorithms surveyed
  by the paper (the reproduction's subject);
* :mod:`repro.eval` — alignment metrics and score diagnostics;
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the evaluation;
* :mod:`repro.baselines` — the deep-learning entity-matching baseline.

Quickstart::

    from repro.datasets import load_preset
    from repro.experiments import build_embeddings
    from repro.core import create_matcher

    task = load_preset("dbp15k/zh_en")
    emb = build_embeddings(task, "R")
    result = create_matcher("CSLS").match(
        emb.source[task.test_query_ids()],
        emb.target[task.candidate_target_ids()],
    )
"""

import importlib

#: Every public name, keyed to the module it is imported from.  The package
#: init imports none of them: a name's home module loads the first time
#: the name is looked up (PEP 562), so ``import repro.serve.http`` pulls
#: in the matching side only, never the KG layer or ``scipy.sparse``.
_EXPORTS = {
    "AlignmentMetrics": "repro.eval",
    "AlignmentPipeline": "repro.pipeline",
    "AlignmentPrediction": "repro.pipeline",
    "AlignmentTask": "repro.kg",
    "ConvergenceError": "repro.errors",
    "DataIntegrityError": "repro.errors",
    "DeadlineExceeded": "repro.errors",
    "KnowledgeGraph": "repro.kg",
    "MatchResult": "repro.core",
    "Matcher": "repro.core",
    "MatcherError": "repro.errors",
    "ResourceBudgetExceeded": "repro.errors",
    "RunSupervisor": "repro.runtime",
    "SimilarityEngine": "repro.similarity",
    "SupervisorPolicy": "repro.runtime",
    "UnifiedEmbeddings": "repro.embedding",
    "available_matchers": "repro.core",
    "create_matcher": "repro.core",
    "evaluate_pairs": "repro.eval",
    "list_presets": "repro.datasets",
    "load_preset": "repro.datasets",
}

__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
