"""The package namespace: eager numpy-free exports, lazy numpy-backed ones."""

import os
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest

import predstmt

#: Every name predstmt exports, by the module it was first exported from.
EXPORTS = {
    "corpus": ("Annotation", "Coin", "DataError", "Dataset", "Document", "FoldAssignment",
               "LabelDistribution", "Source", "Task", "Task1Label", "Task2Label",
               "distribution", "load_dataset", "save_dataset", "stratified_folds"),
    "preprocess": ("CleanConfig", "preprocess", "strip_urls"),
    "features": ("SparseBatch", "TfidfConfig", "TfidfModel", "fit_tfidf", "load_tfidf",
                 "save_tfidf", "transform", "transform_many"),
    "models": ("ForestModel", "LinearModel", "TrainConfig", "TreeNode", "gini", "load_model",
               "predict", "predict_many", "predict_proba", "save_model", "train_logreg",
               "train_random_forest", "train_svm_linear"),
    "evaluation": ("ClassMetrics", "ConfusionMatrix", "CvReport", "MetricsReport",
                   "classification_report", "cohen_kappa", "confusion", "cross_validate",
                   "cross_validate_models", "metrics", "summary_table"),
    "augment": ("AugmentPlan", "OfflineParaphraser", "ProviderConfig", "ProviderError",
                "RemoteParaphraser", "balance", "compute_plan", "llm_label"),
    "emotion": ("CATEGORY_TITLES", "EmotionCategory", "EmotionLexicon", "EmotionProfile",
                "EmotionReport", "aggregate", "bundled_lexicon_path", "load_lexicon",
                "render_markdown", "tag_document"),
}
#: Names whose definition moved to a numpy-free module; the old module re-exports them.
MOVED = {"TfidfConfig": "config", "TrainConfig": "config", "cohen_kappa": "corpus",
         "ProviderConfig": "config", "ProviderError": "config"}
ALL_NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", ALL_NAMES, ids=[name for _, name in ALL_NAMES])
def test_export_is_the_object_of_its_home_module(module, name):
    value = getattr(predstmt, name)
    assert value is getattr(import_module(f"predstmt.{module}"), name)
    if name in MOVED:
        assert value is getattr(import_module(f"predstmt.{MOVED[name]}"), name)


def test_preprocess_is_the_function_not_the_submodule():
    assert isinstance(predstmt.preprocess, types.FunctionType)
    assert predstmt.preprocess is sys.modules["predstmt.preprocess"].preprocess


def test_all_and_dir_list_every_export():
    names = {name for _, name in ALL_NAMES}
    assert set(predstmt.__all__) == names
    assert len(predstmt.__all__) == len(names)
    assert names <= set(dir(predstmt))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from predstmt import *", namespace)
    for _, name in ALL_NAMES:
        assert namespace[name] is getattr(predstmt, name), name


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="module 'predstmt' has no attribute 'nope'"):
        predstmt.nope  # noqa: B018
    assert not hasattr(predstmt, "SparseBatches")


def test_lazy_exports_load_their_module_on_first_access():
    """In a fresh process: no lazily exported module until asked, then the real objects."""
    src = Path(predstmt.__file__).resolve().parents[1]
    script = (
        "import sys, types\n"
        "import predstmt\n"
        "for module in ('augment', 'emotion', 'evaluation', 'features', 'models'):\n"
        "    assert f'predstmt.{module}' not in sys.modules, module\n"
        "assert 'numpy' not in sys.modules\n"
        "from predstmt import cross_validate\n"
        "from predstmt.evaluation import cross_validate as home\n"
        "assert cross_validate is home and 'cross_validate' in vars(predstmt)\n"
        "assert isinstance(predstmt.preprocess, types.FunctionType)\n"
        "assert predstmt.SparseBatch is sys.modules['predstmt.features'].SparseBatch\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
