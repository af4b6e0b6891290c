import importlib.util
import re
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_full(monkeypatch):
    """scripts/bench_full.py as a module; the sys.path entries it adds are undone."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_full", ROOT / "scripts" / "bench_full.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_git_state_is_null_outside_a_checkout(tmp_path, monkeypatch):
    bench_full = _load_bench_full(monkeypatch)
    # a copy that is not a git checkout claims no commit and no clean code
    assert bench_full.git_state(tmp_path) == (None, None)
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("the tests do not run from a git checkout")
    commit, dirty = bench_full.git_state()
    assert re.fullmatch("[0-9a-f]{40}", commit)
    assert isinstance(dirty, bool)
