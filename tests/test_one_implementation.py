"""Each job has one implementation: the Kronecker product of a list is
dense_ops.kron_all, the reorder of an operator's 2n tensor axes is
dense_ops._reorder, the sum of a kernel against its inputs is
multilinear_maps.contract, the listing of an operator's stored entries
is dense_ops._support, the entries of a sum of diagrams are listed and
summed by wba_algebra alone, and the one covariance check at run time is
F's, in ``wba projector``."""

import ast
from pathlib import Path

import wba

PACKAGE = Path(wba.__file__).parent


def _nodes(path: Path, kind):
    """(name of the enclosing def, "" at module level; node) for each node
    of type ``kind`` in the module; a def encloses itself."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else function)
            if isinstance(child, kind):
                yield inner, child
            yield from walk(child, inner)
    return walk(ast.parse(path.read_text()), "")


def _found(predicate, kind=ast.Attribute):
    return [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
            for function, node in _nodes(path, kind) if predicate(path.name, function, node)]


def test_no_kronecker_product_but_kron_all():
    assert _found(lambda module, function, node: node.attr == "kron"
                  and isinstance(node.value, ast.Name) and node.value.id == "np") == []


def test_no_transpose_but_the_reorder():
    assert _found(lambda module, function, node: node.attr == "transpose"
                  and (module, function) != ("dense_ops.py", "_reorder")) == []


def test_no_kernel_sum_but_contract():
    assert _found(lambda module, function, node: module == "multilinear_maps.py"
                  and node.attr == "bincount" and function != "contract") == []


def test_one_reader_of_stored_entries():
    defined = _found(lambda module, function, node: node.name == "_support", ast.FunctionDef)
    assert [where.split(":")[0] for where in defined] == ["dense_ops.py"]
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        callers |= {(path.name, function) for function, node in _nodes(path, ast.Call)
                    if getattr(node.func, "id", getattr(node.func, "attr", None)) == "_support"}
    assert callers == {("multilinear_maps.py", "contract")}


def _calls(name):
    """(module, enclosing def) of each call of ``name`` in the package."""
    return sorted((path.name, function) for path in sorted(PACKAGE.glob("*.py"))
                  for function, node in _nodes(path, ast.Call)
                  if getattr(node.func, "id", getattr(node.func, "attr", None)) == name)


def test_one_covariance_check():
    # F's sector rows are the one operator whose covariance is checked at
    # run time; the search layer's operators are S_3 sums, covariant by
    # construction
    assert _calls("covariance_residual") == [("cli.py", "cmd_projector")]


def test_the_search_layer_checks_no_covariance():
    text = (PACKAGE / "entanglement.py").read_text()
    assert "covariance_residual" not in text and "covariant_block_minimum" not in text


def test_entanglement_lists_its_operators_through_the_algebra():
    # the Werner state, rho^{T_S} and the BCS kernel are S_3 sums that
    # wba_algebra lists: entanglement.py neither finds nor sums entries
    def lists_entries(module, function, node):
        if module != "entanglement.py":
            return False
        if isinstance(node, ast.Attribute):
            return node.attr == "unique" or (
                node.attr == "at" and getattr(node.value, "attr", None) == "add")
        name = node.id if isinstance(node, ast.Name) else node.name
        return name in ("_pair_weights", "_pair_values", "_unit_entries")
    assert _found(lists_entries, (ast.Attribute, ast.Name, ast.alias)) == []
