"""src/ keeps only code that src/ itself reaches; test-only code lives in tests/.

The scan parses src/curvadapt/*.py.  A definition is a public top-level
function or class, or a public method or field of a top-level class: an
annotated class attribute, or a name in the field string of a
``namedtuple("Name", "a b")`` base.  A top-level definition counts as
referenced when its name appears as a name, an attribute or an imported
name anywhere in src/ outside its own definition.  A method or field
counts only when it is read as an attribute (``obj.name``) there: a local
variable or a constructor keyword of the same name does not.  Names are
matched as text, so a definition whose name is reused elsewhere passes;
the scan catches code that nothing in src/ names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curvadapt"

#: definitions that nothing in src/ references, each kept for a stated reason
ALLOWED_UNREFERENCED = {
    "cli._Parser.error": "argparse calls it",
    "isoparametric.isoparametric_verdict": "for the planned Cartan certificate",
    "isoparametric.random_profile_pair": "for the planned Cartan certificate",
    "tube_flow.enumerate_focal_configurations":
        "the brute-force oracle, named in the perfbench LAYERS",
    "tube_flow.theorem3_boundary_case": "to become the boundary block of theorem3",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node, is member) of every public definition
    the scan covers."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                if (isinstance(base, ast.Call) and len(base.args) == 2
                        and (getattr(base.func, "id", None) == "namedtuple"
                             or getattr(base.func, "attr", None) == "namedtuple")
                        and isinstance(base.args[1], ast.Constant)):
                    # the base call is the field's span, so reads in the
                    # class's own methods count
                    for name in base.args[1].value.replace(",", " ").split():
                        if not name.startswith("_"):
                            yield f"{module}.{node.name}.{name}", name, base, True
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{module}.{node.name}.{name}", name, member, True


def _references(tree: ast.Module):
    """(name, line, is attribute read) of every name, attribute and
    imported name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno, False


def unreferenced_definitions(src: Path = SRC) -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    references = [
        (module, name, line, read) for module, tree in trees.items()
        for name, line, read in _references(tree)
    ]
    return {
        qualified
        for module, tree in trees.items()
        for qualified, name, node, member in _definitions(module, tree)
        if not any(
            ref == name
            and (read or not member)
            and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, ref, line, read in references
        )
    }


def test_src_holds_no_test_only_code():
    flagged = unreferenced_definitions()
    unexpected = sorted(flagged - ALLOWED_UNREFERENCED.keys())
    assert not unexpected, f"referenced nowhere in src/; move to tests/ or delete: {unexpected}"
    stale = sorted(ALLOWED_UNREFERENCED.keys() - flagged)
    assert not stale, f"allowlisted but now referenced in src/; drop the entries: {stale}"


def test_scan_sees_an_unreferenced_definition(tmp_path):
    # the scan itself: a function that only calls itself is unreferenced,
    # and so is a field whose name is only a local or a constructor keyword,
    # annotated or named in a namedtuple base; a field read in its own
    # class's method counts
    (tmp_path / "mod.py").write_text(
        "from collections import namedtuple\n\n\n"
        "class Pair:\n    first: int\n    second: int\n\n\n"
        "class Point(namedtuple('Point', 'x y z')):\n"
        "    def norm(self):\n        return self.x\n\n\n"
        "def used():\n    first = 1\n    y = Point(x=0, y=1, z=2).z\n"
        "    return Pair(first=first, second=y).second + Point(0, 1, 2).norm()\n\n\n"
        "def unused(n):\n    return used() + unused(n - 1)\n"
    )
    assert unreferenced_definitions(tmp_path) == {"mod.unused", "mod.Pair.first", "mod.Point.y"}


def test_src_checks_without_assert():
    # python -O strips assert statements, so a program check in src/ raises
    # explicitly instead
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, f"assert in src/; raise instead: {asserts}"
