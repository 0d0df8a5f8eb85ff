"""Every name the package exports has a caller inside the package, or a
stated reason to be public without one."""
import ast
from pathlib import Path

import ttolab

PACKAGE = Path(ttolab.__file__).resolve().parent

# exported names that nothing in src/ttolab references, each with its reason
NO_CALLER = {
    "LebesgueGrid": "besov's Lebesgue reference measure, accepted wherever a Clark measure is",
    "oscillation": "besov's single-arc kernel, the definition the batched sums are read against",
    "conjugate_clark_unitary": "public piece of the atomic route: the embedding of Gamma's codomain",
    "besov_norm": "read by the benchmark's interior workload (ttobench)",
}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _references(trees):
    """Names loaded anywhere in the trees, outside the body of a function
    or class of the same name.  Docstrings are constants, so a name they
    mention is no reference."""
    found = set()

    def walk(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            ident = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            ident = node.attr
        else:
            ident = None
        if ident is not None and ident not in owners:
            found.add(ident)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    for tree in trees:
        walk(tree, frozenset())
    return found


def test_every_export_has_a_caller_or_a_reason():
    exported = _exported()
    referenced = _references(ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")
                             if path.name != "__init__.py")
    orphans = sorted(name for name in exported
                     if name not in referenced and name not in NO_CALLER)
    assert orphans == [], "exported with no caller in src/ttolab and no reason"
    # the list stays current: each entry is exported and still has no caller
    assert sorted(set(NO_CALLER) - set(exported)) == []
    assert sorted(set(NO_CALLER) & referenced) == []


def test_reference_scan_skips_own_body_and_docstrings():
    source = '''
def lonely():
    """lonely() is mentioned here only."""
    return lonely

def used():
    return 1

class Shape:
    def grow(self):
        return Shape()

VALUE = used()
'''
    assert _references([ast.parse(source)]) == {"used"}
