"""The benchmark's hooks into the package must name things that exist.

`perfbench/spans.py` wraps every `(module, attribute)` in its `TARGETS`, and
`perfbench/child.py` patches attributes of `wedgehull.cli`.  A rename in the
package would break the traced benchmark run without failing any other test.
Both files are only read here: `spans.py` is executed from its source (no
bytecode cache is written) and `child.py` is parsed, never run.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

import wedgehull.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TARGETS = runpy.run_path(str(PERFBENCH / "spans.py"))["TARGETS"]


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in TARGETS])
def test_span_target_resolves(module_name, attr):
    module = importlib.import_module(f"wedgehull.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert isinstance(vars(getattr(module, cls_name))[method], classmethod)
    else:
        assert callable(getattr(module, attr))


def test_child_patches_existing_cli_names():
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cli"
    }
    assert {"run_experiment", "run_suites"} <= names
    for name in names:
        assert callable(getattr(cli, name)), name
