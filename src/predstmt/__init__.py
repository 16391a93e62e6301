"""Predictive-statement classification for cryptocurrency tweets.

Library layout:

* corpus: dataset schema, loading, label statistics, stratified folds
* preprocess: tweet cleaning and tokenization
* features: TF-IDF vectorization
* models: logistic regression, linear SVM, random forest (from scratch)
* evaluation: metrics, Cohen's kappa, cross-validation harness
* augment: paraphrase-based class balancing and remote labeling
* emotion: lexicon emotion tagging and per-coin aggregation
* cli: the predstmt command
"""

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
    distribution,
    load_dataset,
    save_dataset,
    stratified_folds,
)
from .preprocess import CleanConfig, preprocess, strip_urls
from .features import (
    SparseBatch,
    TfidfConfig,
    TfidfModel,
    fit_tfidf,
    load_tfidf,
    save_tfidf,
    transform,
    transform_many,
)
from .models import (
    ForestModel,
    LinearModel,
    TrainConfig,
    TreeNode,
    gini,
    load_model,
    predict,
    predict_many,
    predict_proba,
    save_model,
    train_logreg,
    train_random_forest,
    train_svm_linear,
)
from .evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    CvReport,
    MetricsReport,
    classification_report,
    cohen_kappa,
    confusion,
    cross_validate,
    metrics,
    summary_table,
)
from .augment import (
    AugmentPlan,
    BalanceShortfallWarning,
    OfflineParaphraser,
    ParaphraseShortfallError,
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

__version__ = "0.1.0"
