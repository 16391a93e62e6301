"""The package namespace: eager numpy-free exports, lazy numpy-backed ones."""

import ast
import os
import re
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest

import predstmt

#: Every name predstmt exports, by the module it was first exported from.
EXPORTS = {
    "corpus": ("Coin", "DataError", "Dataset", "Document", "FoldAssignment",
               "LabelDistribution", "Source", "Task", "Task1Label", "Task2Label",
               "cohen_kappa", "distribution", "load_dataset", "save_dataset",
               "stratified_folds"),
    "preprocess": ("CleanConfig", "preprocess", "strip_urls"),
    "features": ("SparseBatch", "TfidfConfig", "TfidfModel", "count_terms", "fit_tfidf",
                 "transform_many"),
    "models": ("ForestModel", "LinearModel", "TrainConfig", "TreeNode", "predict_many",
               "train_logreg", "train_random_forest", "train_svm_linear"),
    "evaluation": ("ClassMetrics", "ConfusionMatrix", "CvReport", "MetricsReport",
                   "classification_report", "confusion", "cross_validate",
                   "cross_validate_models", "metrics", "summary_table"),
    "augment": ("AugmentPlan", "OfflineParaphraser", "ProviderConfig", "ProviderError",
                "RemoteParaphraser", "balance", "compute_plan"),
    "emotion": ("CATEGORY_TITLES", "EmotionCategory", "EmotionLexicon", "EmotionProfile",
                "EmotionReport", "aggregate", "bundled_lexicon_path", "load_lexicon",
                "render_markdown", "tag_document"),
}
#: Names whose definition moved to a numpy-free module; the old module re-exports them.
MOVED = {"TfidfConfig": "config", "TrainConfig": "config",
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


def readme_public_surface():
    """The backticked identifiers of README's "full public surface" paragraph."""
    readme = Path(predstmt.__file__).resolve().parents[2] / "README.md"
    paragraph = re.search(r"The full public surface is exported from the package root:.*?\n\n",
                          readme.read_text(encoding="utf-8"), re.S).group(0)
    return re.findall(r"`([A-Za-z_]\w*)`", paragraph)


def test_readme_public_surface_names_only_exports():
    names = readme_public_surface()
    assert len(names) > 30
    assert sorted(set(names) - set(predstmt.__all__)) == []


@pytest.mark.parametrize("name", [name for _, name in ALL_NAMES])
def test_export_is_named_in_the_readme_public_surface(name):
    assert readme_public_surface().count(name) == 1


def _private_definitions(tree: ast.Module):
    """(line, name) of every _-prefixed, non-dunder function, class or assignment defined at
    module level or in the body of a module-level class."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    yield node.lineno, name


def test_no_private_helper_is_left_unused():
    """Every _-prefixed helper of the package is read somewhere in it; docstrings and comments
    do not count."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(predstmt.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [f"{file}:{line} {name}" for file, tree in trees.items()
              for line, name in _private_definitions(tree) if name not in used]
    assert unused == []
