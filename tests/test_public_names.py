"""Names that code and documents outside the package rely on.

The benchmark's tracer (``perfbench/spans.py``) wraps functions by module
and attribute name, and the README's library examples call the public
API; a renamed or deleted name would otherwise surface only in the slow
benchmark run or in a reader's session.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_resolves():
    wrapped = _load_spans().WRAPPED
    assert wrapped
    for module_name, attr, _ in wrapped:
        module = importlib.import_module(f"ringsolve.{module_name}")
        assert callable(getattr(module, attr, None)), f"ringsolve.{module_name}.{attr}"


def _library_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_has_library_blocks():
    assert len(_library_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(_library_blocks())))
def test_readme_library_block_runs(index, monkeypatch, capsys):
    # The examples name fixture files relative to the repository root.
    monkeypatch.chdir(ROOT)
    code = compile(_library_blocks()[index], f"README.md library block {index}", "exec")
    exec(code, {})
    assert capsys.readouterr().out
