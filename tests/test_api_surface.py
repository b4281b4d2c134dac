"""Every public function, class and method in `src/sedkit` has a caller in
`src/sedkit` (`__init__.py` aside) or `perfbench/` (its tests aside): its
name is loaded there as a `Name` or `Attribute` (a method's only as an
`Attribute`). Matching by name misses a dead name that collides with a
live one, such as an `encode` function with `str.encode` or a `log`
method with `np.log`; operators are not checked.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(p for p in glob.glob(os.path.join(ROOT, "src", "sedkit",
                                                   "*.py"))
                 if not p.endswith("__init__.py"))
PERFBENCH = sorted(p for p in glob.glob(os.path.join(ROOT, "perfbench",
                                                     "*.py"))
                   if not os.path.basename(p).startswith("test_"))

# Public names that no program code calls, each kept for a reason.
ALLOWED = {
    "experiments.run_pipeline":
        "the library entry point, run by the README and demo 05",
    "flow.CouplingFlow.inverse":
        "the exact inverse; its round trip is acceptance criterion 4",
}


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _uncalled() -> set[str]:
    names, attributes = set(), set()
    for path in PACKAGE + PERFBENCH:
        for node in ast.walk(_tree(path)):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    uncalled = set()
    for path in PACKAGE:
        module = os.path.basename(path)[:-3]
        for node in _tree(path).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if node.name not in names | attributes:
                uncalled.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                uncalled |= {f"{module}.{node.name}.{item.name}"
                             for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_")
                             and item.name not in attributes}
    return uncalled


def test_every_public_name_has_a_program_caller():
    uncalled = _uncalled()
    assert uncalled - set(ALLOWED) == set(), (
        "call, delete, make private or allow-list with a reason: "
        f"{sorted(uncalled - set(ALLOWED))}")
    # an allow-listed name that gains a caller leaves the list
    assert set(ALLOWED) <= uncalled, sorted(set(ALLOWED) - uncalled)
