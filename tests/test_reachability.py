"""Every public top-level name in ``src/repro`` is named by a user.

A function, class or constant that no code outside the tests names is
dead weight: it can be deleted without moving any artifact, CLI output
or served prediction, and its tests go with it.  This check keeps such
names from growing back.  A public name defined in a non-``__init__``
module must be named somewhere besides its own definition: elsewhere in
its own module, in another ``src/repro`` module, or in ``examples/``,
``benchmarks/`` or ``perfbench/``.  Package ``__init__`` re-exports do
not count as users, and neither do the tests.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "perfbench")

#: Fault hooks: the tests arm them to crash or interrupt a run on
#: purpose, and no entry point does.
TEST_HOOKS = frozenset({"crash_on", "interrupt_on"})

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Map each public top-level name of ``tree`` to its definition."""
    names: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target.id]
        else:
            continue
        names.update(
            (name, node) for name in targets if not name.startswith("_")
        )
    return names


def _words(text: str) -> set[str]:
    return set(_WORD.findall(text))


def unreferenced_public_names() -> list[str]:
    """``module:name`` for each public top-level name nothing names."""
    sources = {
        path: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    }
    words = {path: _words(text) for path, text in sources.items()}
    callers: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            callers |= _words(path.read_text(encoding="utf-8"))
    missing = []
    for path, text in sources.items():
        lines = text.splitlines()
        elsewhere = callers.union(
            *(named for other, named in words.items() if other != path)
        )
        for name, node in _public_definitions(ast.parse(text)).items():
            if name in TEST_HOOKS or name in elsewhere:
                continue
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno, *(d.lineno for d in decorators)])
            rest = lines[: first - 1] + lines[node.end_lineno :]
            if name in _words("\n".join(rest)):
                continue
            module = path.relative_to(PACKAGE.parent).with_suffix("")
            missing.append(f"{'.'.join(module.parts)}:{name}")
    return missing


def test_every_public_name_has_a_user_outside_the_tests():
    assert unreferenced_public_names() == []
