"""README's entry points keep working: its Python code runs, every command
of its command-line block exits 0, and every public name it can refer to
resolves, as does every annotation in the package.
"""

import importlib
import inspect
import pkgutil
import re
import shlex
import typing
from pathlib import Path

import pytest

import dpgames
from dpgames import cli

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
COMMAND_BLOCK = re.search(r"^## Command line\n\n```sh\n(.*?)^```", README, flags=re.M | re.S)[1]
COMMANDS = [line.split("#")[0].strip() for line in COMMAND_BLOCK.splitlines()
            if line.startswith("dpgames ")]


def test_readme_has_python_code():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=lambda code: code.splitlines()[0])
def test_readme_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # whatever a block writes stays out of the checkout
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})


def test_readme_has_every_subcommand():
    assert {shlex.split(c)[1] for c in COMMANDS} == {"run", "verify", "sweep", "presets", "ne-oracle"}


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_line_runs(command, tmp_path, monkeypatch):
    # ``my.json`` is the config the block's ``--config`` line reads
    monkeypatch.chdir(tmp_path)
    cli.write_config(cli.preset("fig2-baseline"), tmp_path / "my.json")
    assert cli.main(shlex.split(command)[1:]) == 0


def test_every_public_name_resolves():
    assert sorted(dpgames.__all__) == sorted(set(dpgames.__all__))
    for name in dpgames.__all__:
        assert hasattr(dpgames, name), name


def test_every_annotation_in_the_package_resolves():
    # typing.get_type_hints evaluates each annotation in its module's namespace
    names = [dpgames.__name__] + [f"dpgames.{m.name}" for m in pkgutil.iter_modules(dpgames.__path__)]
    for module in map(importlib.import_module, names):
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for f in [obj, *(vars(obj).values() if inspect.isclass(obj) else ())]:
                f = getattr(f, "__func__", getattr(f, "fget", f))  # a static or class method, a property
                if inspect.isclass(f) or inspect.isfunction(f):
                    typing.get_type_hints(f)
