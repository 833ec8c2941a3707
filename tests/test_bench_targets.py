"""Every function the traced benchmark wraps still exists under its name.

The bench directory is appended to ``sys.path``, not prepended, so that
``tests`` keeps resolving to this directory."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.append(str(BENCH_DIR))

import layers  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("target", layers.TARGETS, ids=lambda target: target.key)
def test_target_resolves(target):
    importlib.import_module(target.module)
    assert callable(spans.resolve(target))
