"""What the package shows outside its unit tests.

A function or method of ``src/wba`` (dunders aside) must be named somewhere
outside the unit tests: in the package's modules, in the acceptance suite,
in the benchmark workloads or in a code span of the README.  A re-export in
``wba/__init__.py`` is not a use: a name that only ``__init__`` imports is
reached by the unit tests alone.  A name counts as
used when it appears as an ``ast.Name``, an ``ast.Attribute`` or an import
alias, so the check matches by name, not by binding.  A method that
overrides one of a base class, such as ``argparse.ArgumentParser.error``,
is called by the base and counts as used.  The README's library example
runs as written.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wba"
README = (ROOT / "README.md").read_text()
FENCED = re.compile(r"```[^\n]*\n(.*?)```", re.S)
INLINE = re.compile(r"`([^`\n]+)`")


def _defined(tree):
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _overrides(module, tree):
    """Methods of the module's classes that a base class also defines."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bases = getattr(importlib.import_module(f"wba.{module}"), node.name).__mro__[1:]
            found.update(item.name for item in node.body if isinstance(item, ast.FunctionDef)
                         and any(hasattr(base, item.name) for base in bases))
    return found


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _readme_trees():
    """The README's fenced blocks and inline spans that parse as Python;
    shell lines and formulas name no function."""
    trees = []
    for span in FENCED.findall(README) + INLINE.findall(FENCED.sub("", README)):
        try:
            trees.append(ast.parse(span))
        except SyntaxError:
            pass
    return trees


def test_every_function_is_used_outside_the_unit_tests():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    users = [tree for module, tree in modules.items() if module != "__init__"]
    users += _readme_trees() + [
        ast.parse((ROOT / path).read_text())
        for path in ("tests/test_acceptance.py", "perfbench/workloads.py")]
    used = set().union(*map(_used, users))
    unused = [f"{module}.{fn}" for module, tree in modules.items()
              for fn in sorted(_defined(tree) - used - _overrides(module, tree))]
    assert unused == []


def test_readme_library_example_runs():
    block = FENCED.search(README, README.index("## Library example")).group(1)
    exec(compile(block, "README.md", "exec"), {})
