"""Long-dependency scoring for training-corpus curation.

Splits documents into fixed-length segments, measures how much earlier
segments reduce the perplexity of later ones, and aggregates that into a
per-document score used to rank and select long-range-coherent training
data. Ships a built-in n-gram scorer, a wire protocol for external
scorers, a selection pipeline, heatmap rendering, and a synthetic bench.
"""

from .backends import (
    ExternalBackend,
    PerplexityBackend,
    cached_unconditional,
    ppl,
    ppl_given,
)
from .bench import (
    BenchResult,
    OracleBackend,
    SynthSpec,
    TestSet,
    accuracy_at_k,
    generate_testset,
    repeated_token_document,
    run_bench,
)
from .config import REFERENCE_PROFILE, RunConfig, resolve_config
from .corpus import (
    Document,
    IngestStats,
    SegmentGrid,
    Token,
    ingest,
    segment,
    tokenize,
)
from .errors import (
    BackendError,
    BackendUnreachable,
    ConfigError,
    DocumentTooShort,
    LongdepError,
    ScoringError,
)
from .heatmap import render_heatmap
from .lds import (
    LdsConfig,
    PairScore,
    ScoreReport,
    ddi,
    derive_seed,
    dsp,
    dst,
    lds_pair,
    pair_count,
    sample_pairs,
    score_document,
)
from .ngram import NGramBackend, NGramModel, train_ngram
from .pipeline import (
    DocumentOutcome,
    build_manifest,
    reports_only,
    score_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "BackendError",
    "BackendUnreachable",
    "BenchResult",
    "ConfigError",
    "Document",
    "DocumentOutcome",
    "DocumentTooShort",
    "ExternalBackend",
    "IngestStats",
    "LdsConfig",
    "LongdepError",
    "NGramBackend",
    "NGramModel",
    "OracleBackend",
    "PairScore",
    "PerplexityBackend",
    "REFERENCE_PROFILE",
    "RunConfig",
    "ScoreReport",
    "ScoringError",
    "SegmentGrid",
    "SynthSpec",
    "TestSet",
    "Token",
    "accuracy_at_k",
    "build_manifest",
    "cached_unconditional",
    "ddi",
    "derive_seed",
    "dsp",
    "dst",
    "generate_testset",
    "ingest",
    "lds_pair",
    "pair_count",
    "ppl",
    "ppl_given",
    "render_heatmap",
    "repeated_token_document",
    "reports_only",
    "resolve_config",
    "run_bench",
    "sample_pairs",
    "score_corpus",
    "score_document",
    "segment",
    "tokenize",
    "train_ngram",
]
