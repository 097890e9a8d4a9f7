"""The documented Python API: the README's examples and each module's exports."""

import importlib
import os
import re

import pytest

import cartanheis

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_blocks_run():
    # every ```python block of the README, in order, in one namespace
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) >= 3
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)


@pytest.mark.parametrize("name", cartanheis.__all__)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"cartanheis.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, missing
