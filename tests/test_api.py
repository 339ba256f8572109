"""The public names of the package: each layer module's ``__all__`` and the
names the package ``__init__`` re-exports from it.  ``perfbench/spans.py``
reads every ``__all__`` name with ``getattr``, so a stale entry breaks it."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import amalgam_zdg

LAYERS = ("specs", "rings", "graphs", "amalgam", "theorems")


def package_imports() -> dict[str, list[str]]:
    """The names ``__init__`` imports, by the layer module they come from."""
    tree = ast.parse(Path(amalgam_zdg.__file__).read_text(encoding="utf-8"))
    out: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in LAYERS:
            out.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("layer", LAYERS)
def test_every_all_entry_resolves(layer):
    module = importlib.import_module(f"amalgam_zdg.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], layer


def test_package_exports_only_public_layer_names():
    imports = package_imports()
    assert set(imports) == set(LAYERS)
    for layer, names in imports.items():
        public = importlib.import_module(f"amalgam_zdg.{layer}").__all__
        assert [name for name in names if name not in public] == [], layer
