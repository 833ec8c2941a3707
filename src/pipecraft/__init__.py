"""pipecraft: agent-driven search over data-processing pipelines for QA corpora.

Four processing teams (Cleaning, Optimization, Generation, Selection) can be
composed into 65 ordered strategies, including "do nothing". An agent
proposes strategy groups, a pluggable evaluator scores each one against the
unprocessed baseline, and three accelerators keep the loop cheap:
representative sub-sampling, clean/noisy routing so model-backed teams only
touch low-quality records, and a prefix-reuse cache so overlapping
strategies never re-process shared work.
"""
from .agent import (
    AgentDecision,
    AgentResponseError,
    HillClimbAgent,
    Round,
    SearchResult,
    build_initial_prompt,
    build_iteration_prompt,
    compute_feedback,
    parse_agent_response,
    run_search,
)
from .cache import CacheEntry, CacheIntegrityError, StrategyCache
from .clients import (
    AgentClient,
    EmbeddingClient,
    HashingEmbedder,
    HeuristicScorer,
    ModelClient,
    NormalizingOptimizer,
    ScreenerClient,
    TemplateGenerator,
    TrainerClient,
)
from .config import EvalConfig, OperatorConfig, RunConfig, load_run_config
from .corpus import Dataset, DatasetError, Sample, load_dataset, save_dataset
from .evaluation import evaluate_strategy, proxy_components, proxy_score
from .operators import (
    ExecutionContext,
    apply_cleaning,
    apply_strategy,
    apply_team,
    generate_missing,
    minhash_dedup,
    optimize_sample,
    select_high_quality,
    strip_noise,
)
from .sampling import embed_all, greedy_select, stratified_sample
from .screener import Screener, ScreenerVerdict
from .strategy import (
    EMPTY_STRATEGY,
    Strategy,
    Team,
    enumerate_space,
    parse_strategy,
)
from .textstats import (
    clean_text,
    ngram_repetition_ratio,
    special_char_ratio,
    token_count,
)

__version__ = "0.1.0"
