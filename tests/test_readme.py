"""The README's python examples import only names that exist."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_imports_of_python_block_run(block):
    imports = [
        node for node in ast.parse(block).body if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
