"""README's entry points keep working: its Python code runs, and every
public name it can refer to resolves.
"""

import re
from pathlib import Path

import pytest

import dpgames

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)


def test_readme_has_python_code():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=lambda code: code.splitlines()[0])
def test_readme_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # whatever a block writes stays out of the checkout
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})


def test_every_public_name_resolves():
    assert sorted(dpgames.__all__) == sorted(set(dpgames.__all__))
    for name in dpgames.__all__:
        assert hasattr(dpgames, name), name
