"""The public surface: what ``from latdir import *`` binds, and the names the benchmark reads.

``perfbench/tracer.py`` patches latdir functions by (module, attribute), and
the bench scripts read ``ld.<name>`` and import from latdir; deleting or
renaming one of those would break the benchmark while the rest of this
suite still passes.  The bench files are parsed here, not imported.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import latdir as ld

ROOT = Path(__file__).resolve().parents[1]
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _tracer_targets():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    return [(row.elts[0].value, row.elts[1].value) for row in table.elts]


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(module)
        *outer, name = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the tracer patches a method in its class's own __dict__, a function wherever it is bound
        assert callable(vars(owner)[name] if outer else getattr(owner, name)), (module, attr)


def test_bench_reads_only_existing_names():
    for path in BENCH:
        text = path.read_text()
        for name in set(re.findall(r"\bld\.(\w+)", text)):
            assert hasattr(ld, name), (path.name, name)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("latdir"):
                home = importlib.import_module(node.module)
                for alias in node.names:  # a name the module binds, or one of its submodules
                    assert hasattr(home, alias.name) or importlib.import_module(f"{node.module}.{alias.name}")


def test_star_import_binds_the_public_names_and_no_module():
    ns = {}
    exec("from latdir import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == ld.__all__
    assert not [name for name, value in ns.items() if isinstance(value, types.ModuleType)]


def test_readme_quick_start_uses_public_names():
    readme = (ROOT / "README.md").read_text()
    code = readme.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    used = set(re.findall(r"\bld\.(\w+)", code))
    assert used and used <= set(ld.__all__), used - set(ld.__all__)
