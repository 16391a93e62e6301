"""Predictive-statement classification for cryptocurrency tweets.

Library layout:

* corpus: dataset schema, loading, label statistics, stratified folds, Cohen's kappa
* preprocess: tweet cleaning and tokenization
* config: TF-IDF and training settings, and the model kinds
* features: TF-IDF vectorization
* models: logistic regression, linear SVM, random forest (from scratch)
* evaluation: metrics and the cross-validation harness
* augment: paraphrase-based class balancing and remote labeling
* emotion: lexicon emotion tagging and per-coin aggregation
* cli: the predstmt command

Only features, models and evaluation use numpy. Their names are exported
lazily (PEP 562): the first access to one imports its module, so
`import predstmt` and the offline commands never load numpy.
"""

from importlib import import_module

from .corpus import (
    Annotation,
    Coin,
    DataError,
    Dataset,
    Document,
    FoldAssignment,
    LabelDistribution,
    Source,
    Task,
    Task1Label,
    Task2Label,
    cohen_kappa,
    distribution,
    load_dataset,
    save_dataset,
    stratified_folds,
)
from .preprocess import CleanConfig, preprocess, strip_urls
from .config import TfidfConfig, TrainConfig
from .augment import (
    AugmentPlan,
    OfflineParaphraser,
    ProviderConfig,
    ProviderError,
    RemoteParaphraser,
    balance,
    compute_plan,
    llm_label,
)
from .emotion import (
    CATEGORY_TITLES,
    EmotionCategory,
    EmotionLexicon,
    EmotionProfile,
    EmotionReport,
    aggregate,
    bundled_lexicon_path,
    load_lexicon,
    render_markdown,
    tag_document,
)

#: Exported name -> the numpy module it comes from, imported on first access.
_LAZY = {
    **dict.fromkeys(("SparseBatch", "TfidfModel", "fit_tfidf", "load_tfidf", "save_tfidf",
                     "transform", "transform_many"), "features"),
    **dict.fromkeys(("ForestModel", "LinearModel", "TreeNode", "gini", "load_model", "predict",
                     "predict_many", "predict_proba", "save_model", "train_logreg",
                     "train_random_forest", "train_svm_linear"), "models"),
    **dict.fromkeys(("ClassMetrics", "ConfusionMatrix", "CvReport", "MetricsReport",
                     "classification_report", "confusion", "cross_validate",
                     "cross_validate_models", "metrics", "summary_table"), "evaluation"),
}

__all__ = [
    "Annotation", "Coin", "DataError", "Dataset", "Document", "FoldAssignment",
    "LabelDistribution", "Source", "Task", "Task1Label", "Task2Label", "cohen_kappa",
    "distribution", "load_dataset", "save_dataset", "stratified_folds",
    "CleanConfig", "preprocess", "strip_urls",
    "TfidfConfig", "TrainConfig",
    "AugmentPlan", "OfflineParaphraser", "ProviderConfig", "ProviderError", "RemoteParaphraser",
    "balance", "compute_plan", "llm_label",
    "CATEGORY_TITLES", "EmotionCategory", "EmotionLexicon", "EmotionProfile", "EmotionReport",
    "aggregate", "bundled_lexicon_path", "load_lexicon", "render_markdown", "tag_document",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
