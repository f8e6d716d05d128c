"""The library's public surface is what the package runs or what README shows.

Every module-level public function or class of src/riesz_sip must be
referenced in src/ outside its own definition and outside __init__.py,
be imported in a Python block of README's "Library use" section, or be
on ALLOWED below with its reason. Every module-level private one must be
referenced in src/ outside its own definition. A name that only tests
call fails here: delete it, fold it into its caller, or move it into the
tests that call it.

The package itself exports exactly what "Library use" imports, plus the
names on EXPORTED with their reasons; everything else is imported from
its module.
"""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "riesz_sip"

# name: why it stays with no caller in src/
ALLOWED = {
    "box_times": "the benchmark's tracer binds it (harness.box_times); ROADMAP item 11",
    "box_times_oracle": "the benchmark's tracer binds it for its grid-byte count; ROADMAP item 11",
    "box_plus_oracle": "the benchmark's tracer binds it for its grid-byte count; ROADMAP item 11",
    "replay_counterexample": "the benchmark's triage workload replays counterexamples with it",
}

# name: why the package exports it although "Library use" does not import it
EXPORTED = {
    "as_lattice_vector": "the benchmark's tracer test reads riesz_sip.as_lattice_vector",
}


def _library_use() -> set:
    """The names README's "Library use" Python blocks import from riesz_sip."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for block in re.findall(r"^```python\n(.*?)^```", section, re.MULTILINE | re.DOTALL):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "riesz_sip":
                names.update(alias.name for alias in node.names)
    return names


def _definitions(trees: dict, private: bool = False) -> dict:
    """{name: its module-level def or class node} of every public one, or every private one."""
    return {node.name: node for tree in trees.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private}


def _references(tree: ast.AST) -> Counter:
    """How often each name occurs in tree as a Name or an attribute (imports do not count)."""
    return Counter(getattr(node, "id", None) or getattr(node, "attr", None)
                   for node in ast.walk(tree))


def _trees() -> dict:
    """{module file name: its ast} of every module of src/riesz_sip."""
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _uncalled(trees: dict, defined: dict) -> set:
    """The names of defined referenced in src/ (outside __init__.py) only inside their own definitions."""
    in_src = sum((_references(tree) for module, tree in trees.items()
                  if module != "__init__.py"), Counter())
    return {name for name, node in defined.items() if in_src[name] == _references(node)[name]}


def test_every_public_name_has_a_caller_in_src_or_a_stated_reason():
    trees = _trees()
    defined = _definitions(trees)
    shown = _library_use()
    assert shown, "README's Library use section imports nothing from riesz_sip"
    assert ALLOWED.keys() <= defined.keys(), sorted(ALLOWED.keys() - defined.keys())
    assert sorted(_uncalled(trees, defined) - shown - ALLOWED.keys()) == []


def test_every_private_name_has_a_caller_in_src():
    trees = _trees()
    assert sorted(_uncalled(trees, _definitions(trees, private=True))) == []


def test_the_package_exports_what_library_use_imports():
    import riesz_sip

    bound = {name for name, obj in vars(riesz_sip).items()
             if not name.startswith("__") and not inspect.ismodule(obj)}
    expected = _library_use() | EXPORTED.keys()
    assert sorted(bound - expected) == [] and sorted(expected - bound) == []
