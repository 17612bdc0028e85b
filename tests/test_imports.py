"""Source hygiene: no module of the package imports a name it never uses,
and every name it defines at top level is read somewhere."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pikac"


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import -> its line; ``__future__`` imports bind
    no name the module reads."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    """Every name the module reads, annotations included; a quoted
    annotation is parsed for the names it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= {n.id for n in ast.walk(ast.parse(ann.value))
                          if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert unused == {}


def _defined(tree: ast.Module) -> dict:
    """Each function, class and constant the module defines at top level
    -> the lines of its definition; dunder names are left out."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                out[name] = range(node.lineno, node.end_lineno + 1)
    return out


def _reads(tree: ast.Module):
    """``(name, line)`` for each name the module reads: a variable, an
    attribute, or a string that is a name (as ``getattr`` and
    ``monkeypatch.setattr`` take one)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def _unread(folders) -> list:
    """``module: name`` for each top-level name of the package that no
    module under ``folders`` reads outside the name's own definition."""
    reads = {path: list(_reads(ast.parse(path.read_text(), str(path))))
             for folder in folders
             for path in sorted(folder.rglob("*.py"))}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        defined = _defined(ast.parse(path.read_text(), str(path)))
        read = {name for other, names in reads.items()
                for name, line in names
                if name in defined
                and not (other == path and line in defined[name])}
        unread += [f"{path.name}: {name}" for name in defined
                   if name not in read]
    return unread


def test_every_top_level_name_is_read():
    """Each top-level name of the package is read in ``src``, ``tests`` or
    ``perfbench`` outside its own definition."""
    assert _unread([ROOT / "src", ROOT / "tests", ROOT / "perfbench"]) == []


# the names of the package that only the tests and the benchmark read; a
# name may leave this list, once a command reads it or it moves out of the
# package, but none may join it
READ_OUTSIDE_THE_PACKAGE = [
    "modelcheck.py: check_otimes",
    "ssl.py: EMPTY_ASSERTION",
    "ssl.py: count_goal_nodes",
    "ssl.py: count_predicate_nodes",
    "ssl.py: goal_structural_equiv",
    "ssl.py: parse_goal_spec",
    "ssl.py: parse_sus_file",
    "ssl.py: structural_equiv",
    "syntax.py: count_unit_nodes",
    "syntax.py: pretty_print",
    "types.py: check_concrete",
]


def test_names_the_package_does_not_read_are_listed():
    assert sorted(_unread([SRC])) == READ_OUTSIDE_THE_PACKAGE
