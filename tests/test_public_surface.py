"""Every name `qperm` exports resolves, is listed once, and has a reason to be public.

A name has a reason when code of the package calls it outside its own
definition, when a README example or the benchmark under perfbench/ uses
it, or when PUBLIC_WITHOUT_CALLER below says why users need it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import qperm

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qperm"

#: exported names that nothing in the package, README's examples or perfbench/ calls
PUBLIC_WITHOUT_CALLER = {
    "antipode": "S of the Hopf structure that README's overview offers; symmetry is "
                "L o S = L, which is_symmetric_words decides from the letter matrices",
    "reduce": "the normal form of the word algebra, which README's overview offers; "
              "the engines reduce letter tuples in _kernel instead",
    "state_table": "omega_t on many words with one exponential per word length, the "
                   "batched conv_exp that README's numerical conventions describe",
}


def _listed() -> list[str]:
    """Every name `__init__.py` lists: its imported names and any literal `__all__` entries."""
    names = []
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            names += [elt.value for elt in node.value.elts]
    return names


EXPORTED = sorted(set(_listed()))


def _loads_in_src() -> Counter:
    """Loads of a name or attribute in the package's modules, outside the name's own definition."""
    loads = Counter()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        own = {}  # id of each node -> the top-level definition it lies in
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own.update((id(sub), top.name) for sub in ast.walk(top))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if own.get(id(node)) != name:
                loads[name] += 1
    return loads


def _words(text: str) -> set[str]:
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))


def test_every_export_resolves_is_listed_once_and_has_a_caller_or_a_reason():
    assert [name for name in EXPORTED if not hasattr(qperm, name)] == []
    assert sorted(name for name, count in Counter(_listed()).items() if count > 1) == []
    readme = (ROOT / "README.md").read_text()
    examples = _words("".join(re.findall(r"```.*?```", readme, re.S)))
    bench = set().union(*(_words(p.read_text()) for p in (ROOT / "perfbench").rglob("*.py")))
    loads = _loads_in_src()
    orphans = [name for name in EXPORTED
               if not (loads[name] or name in examples or name in bench
                       or name in PUBLIC_WITHOUT_CALLER)]
    assert orphans == []
    assert sorted(set(PUBLIC_WITHOUT_CALLER) - set(EXPORTED)) == []
