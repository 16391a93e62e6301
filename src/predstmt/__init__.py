"""Predictive-statement classification for cryptocurrency tweets.

Library layout:

* corpus: dataset schema, loading, label statistics, stratified folds, Cohen's kappa
* preprocess: tweet cleaning and tokenization
* config: training and remote-provider settings, and the model kinds
* features: TF-IDF vectorization
* models: logistic regression, linear SVM, random forest (from scratch)
* evaluation: metrics and the cross-validation harness
* augment: paraphrase-based class balancing, offline or through a remote endpoint
* emotion: lexicon emotion tagging and per-coin aggregation
* cli: the predstmt command

Only features, models and evaluation use numpy, and only the balance and
emotion commands need augment and emotion. The names of these five modules
are exported lazily (PEP 562): the first access to one imports its module,
so `import predstmt` loads none of them and never loads numpy.
"""

from importlib import import_module

from .corpus import (
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
from .preprocess import preprocess, strip_urls
from .config import ProviderConfig, ProviderError, TrainConfig

#: Exported name -> the module it comes from, imported on first access.
_LAZY = {
    **dict.fromkeys(("AugmentPlan", "OfflineParaphraser", "RemoteParaphraser", "balance",
                     "compute_plan"), "augment"),
    **dict.fromkeys(("CATEGORY_TITLES", "EmotionCategory", "EmotionLexicon", "EmotionProfile",
                     "EmotionReport", "aggregate", "bundled_lexicon_path", "load_lexicon",
                     "render_markdown", "tag_document"), "emotion"),
    **dict.fromkeys(("SparseBatch", "TfidfModel", "count_terms", "fit_tfidf", "transform_many"),
                    "features"),
    **dict.fromkeys(("ForestModel", "LinearModel", "TreeNode", "predict_many",
                     "train_logreg", "train_random_forest", "train_svm_linear"), "models"),
    **dict.fromkeys(("ClassMetrics", "ConfusionMatrix", "CvReport", "MetricsReport",
                     "classification_report", "confusion", "cross_validate",
                     "cross_validate_models", "metrics", "summary_table"), "evaluation"),
}

__all__ = [
    "Coin", "DataError", "Dataset", "Document", "FoldAssignment", "LabelDistribution",
    "Source", "Task", "Task1Label", "Task2Label", "cohen_kappa", "distribution",
    "load_dataset", "save_dataset", "stratified_folds",
    "preprocess", "strip_urls",
    "ProviderConfig", "ProviderError", "TrainConfig",
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
