"""Each job has one implementation: the Kronecker product of a list is
dense_ops.kron_all, the reorder of an operator's 2n tensor axes is
dense_ops._reorder, and the sum of a kernel against its inputs is
multilinear_maps.contract."""

import ast
from pathlib import Path

import wba

PACKAGE = Path(wba.__file__).parent


def _attributes(path: Path):
    """(name of the enclosing def, "" at module level; ast.Attribute) for
    each attribute in the module."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else function)
            if isinstance(child, ast.Attribute):
                yield inner, child
            yield from walk(child, inner)
    return walk(ast.parse(path.read_text()), "")


def _found(predicate):
    return [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
            for function, node in _attributes(path) if predicate(path.name, function, node)]


def test_no_kronecker_product_but_kron_all():
    assert _found(lambda module, function, node: node.attr == "kron"
                  and isinstance(node.value, ast.Name) and node.value.id == "np") == []


def test_no_transpose_but_the_reorder():
    assert _found(lambda module, function, node: node.attr == "transpose"
                  and (module, function) != ("dense_ops.py", "_reorder")) == []


def test_no_kernel_sum_but_contract():
    assert _found(lambda module, function, node: module == "multilinear_maps.py"
                  and node.attr == "bincount" and function != "contract") == []
