"""Every public function, class and method in `src/sedkit` has a caller in
`src/sedkit` (`__init__.py` aside) or `perfbench/` (its tests aside): its
name is loaded there as a `Name` or `Attribute` (a method's only as an
`Attribute`). Matching by name misses a dead name that collides with a
live one, such as an `encode` function with `str.encode` or a `log`
method with `np.log`; operators are not checked.

Every defaulted parameter of a module-level function or class
constructor (dataclass fields included) is passed by some program call
and omitted by another, calls being matched by the callee's name; a call
with `*args` or `**kwargs` counts as both. A default no call omits is a
required parameter in disguise, and one no call overrides is a constant.
The INI sections and `EncoderArch` are exempt: their defaults are the
config's.

No module imports `ctypes` or names `mallopt`, so importing sedkit leaves
the allocator of the importing process as it was.
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


# Defaulted parameters with no program caller on one side, each kept for
# a reason.
DEFAULTS_ALLOWED = {
    "experiments.run_pipeline(out_dir)":
        "the library entry point writes nothing unless asked; no program "
        "code calls it",
    "experiments.DataBundle(nli)":
        "the library entry point's bundle; no program code builds one",
}


def _is_dataclass(node) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _defaulted(args: ast.arguments, skip: int = 0) -> dict[str, int | None]:
    """Defaulted parameter -> positional index (None if keyword-only)."""
    positional = (args.posonlyargs + args.args)[skip:]
    out = {a.arg: i for i, a in
           enumerate(positional)
           if i >= len(positional) - len(args.defaults)}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None})
    return out


def _defaults() -> dict[str, tuple[str, dict]]:
    """Callable name -> (module, {defaulted parameter: positional index})
    for module-level functions and class constructors; the INI sections
    and `EncoderArch` are left out, their defaults being the config's."""
    from sedkit.config import _SECTION_TYPES
    exempt = {cls.__name__ for cls in _SECTION_TYPES.values()}
    found = {}
    for path in PACKAGE:
        module = os.path.basename(path)[:-3]
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                found[node.name] = (module, _defaulted(node.args))
            elif isinstance(node, ast.ClassDef) and node.name not in exempt:
                if _is_dataclass(node):
                    fields = [item for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name)]
                    found[node.name] = (module, {
                        f.target.id: i for i, f in enumerate(fields)
                        if f.value is not None})
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name == "__init__"):
                        found[node.name] = (module,
                                            _defaulted(item.args, skip=1))
    return {name: d for name, d in found.items() if d[1]}


def _one_sided_defaults() -> set[str]:
    defaults = _defaults()
    passed = {name: set() for name in defaults}
    omitted = {name: set() for name in defaults}
    for path in PACKAGE + PERFBENCH:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name not in defaults:
                continue
            params = defaults[name][1]
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed[name] |= set(params)
                omitted[name] |= set(params)
                continue
            given = {k.arg for k in node.keywords}
            for param, index in params.items():
                if param in given or (index is not None
                                      and index < len(node.args)):
                    passed[name].add(param)
                else:
                    omitted[name].add(param)
    return {f"{module}.{name}({param})"
            for name, (module, params) in defaults.items()
            for param in params
            if param not in passed[name] or param not in omitted[name]}


def test_every_default_is_both_passed_and_omitted_by_program_code():
    one_sided = _one_sided_defaults()
    assert one_sided - set(DEFAULTS_ALLOWED) == set(), (
        "a default no program call omits should be required, and one no "
        "program call overrides should be a constant; else allow-list it "
        f"with a reason: {sorted(one_sided - set(DEFAULTS_ALLOWED))}")
    # an allow-listed default that gains its missing caller leaves the list
    assert set(DEFAULTS_ALLOWED) <= one_sided, sorted(
        set(DEFAULTS_ALLOWED) - one_sided)


def test_no_module_reaches_into_the_c_library():
    """Read from the sources: numpy imports `ctypes` itself, so
    `sys.modules` cannot show whether sedkit does."""
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "sedkit", "**",
                                              "*.py"), recursive=True)):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names = [node.value]
            else:
                continue
            found += [f"{os.path.basename(path)}:{node.lineno}: {name}"
                      for name in names
                      if name == "ctypes" or "mallopt" in name]
    assert found == [], found
