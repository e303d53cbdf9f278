"""The documents' example code and the package's public names stay in step with the library."""

from __future__ import annotations

import re
import types
from pathlib import Path

import pytest

import spincoins

ROOT = Path(__file__).resolve().parent.parent
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_quickstart_blocks_run(doc):
    blocks = PYTHON_BLOCK.findall((ROOT / doc).read_text(encoding="utf-8"))
    assert blocks, f"{doc} has no python block"
    for block in blocks:
        exec(compile(block, doc, "exec"), {})


def test_all_lists_exactly_the_public_imported_names():
    public = {
        name
        for name, value in vars(spincoins).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(spincoins.__all__) == sorted(public | {"__version__"})
    for name in spincoins.__all__:
        assert hasattr(spincoins, name), name
