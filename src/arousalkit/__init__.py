"""Toolkit for bootstrapping and evaluating an issue-tracker arousal lexicon."""

from .corpus import (
    Field,
    Priority,
    TokenStore,
    Vocabulary,
    build_vocabulary,
    read_corpus,
    tokenize,
)
from .embedding import (
    CoocMatrix,
    EmbeddingConfig,
    EmbeddingModel,
    WordVectors,
    count_cooccurrences,
    glove_loss,
    glove_train,
    nearest_neighbors,
    nearest_neighbors_batch,
)
from .lexicon import (
    AgreementReport,
    CandidateSet,
    RatingRecord,
    SeaLexicon,
    SeedConfig,
    SeedSet,
    aggregate_ratings,
    expand_embedding,
    expand_wordnet,
    generate_sheet,
    ingest_ratings,
    load_general_lexicon,
    rater_agreement,
    read_review,
    select_seeds,
)
from .scoring import (
    MODES,
    ScoreTable,
    ScoringLexicon,
    UnitScore,
    combined_score,
    score_corpus,
    score_text,
)
from .stats import cohens_d, pearson_r, pooled_t_test, weighted_kappa, welch_t_test
from .evalstats import EvalTable, evaluate_priorities, render_tables
from .wordnet import SynsetDb, load_wordnet, synonyms

__version__ = "0.1.0"
