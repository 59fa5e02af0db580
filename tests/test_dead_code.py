"""Production code holds only what the package itself runs.

A public top-level function or class of `src/mfou` that nothing in `src/mfou`
uses belongs in `tests/oracles.py` (a reference the tests compare against) or
nowhere. An error class that nothing raises is a promise the taxonomy does not
keep. A method or dataclass field that no code in `src/mfou` or `perfbench/`
reads is state kept for the tests alone, and a default-valued parameter that
no call there passes is an option with one value in use.

Receivers are typed from what the source states: parameter annotations,
`self`, constructor calls, return annotations and field annotations. A
receiver the scan cannot type counts as a read of every member of that name,
so the guard errs towards keeping code.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import mfou

SRC = Path(mfou.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
READERS = list(MODULES.values()) + [
    ast.parse(path.read_text(encoding="utf-8")) for path in PERFBENCH.glob("*.py")
]

# members that no production code reads, kept on purpose
ALLOWED = {
    "ExperimentConfig.from_manifest": "manifest replay, promised by README and checked by c11",
    "CgfEstimate.top_share": "heavy-tail diagnostic of the Monte Carlo CGF (ROADMAP item 13)",
}


def _names(tree) -> Counter:
    """How often each name or attribute is read in `tree`."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def _unused():
    """Public top-level definitions read nowhere in the package outside themselves."""
    everywhere = sum((_names(tree) for tree in MODULES.values()), Counter())
    return {
        f"{module}.{node.name}": node
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and everywhere[node.name] == _names(node)[node.name]
    }


def test_every_public_definition_is_used_in_the_package():
    assert sorted(_unused()) == []


def test_every_error_class_is_raised_in_the_package():
    classes = {node.name: node for node in MODULES["errors"].body if isinstance(node, ast.ClassDef)}
    dead = {id(node) for unused in _unused().values() for node in ast.walk(unused)}
    raised = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and id(node) not in dead:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.update(_names(exc))
    # a family base (MfouError, NumericalError) counts through the classes derived from it
    bases = {b.id for node in classes.values() for b in node.bases if isinstance(b, ast.Name)}
    assert sorted(set(classes) - raised - bases) == []


# -- members and options ------------------------------------------------------


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _fields(node: ast.ClassDef) -> list:
    """Dataclass fields in order: (name, annotation, has a default)."""
    return [
        (stmt.target.id, stmt.annotation, stmt.value is not None)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _methods(node: ast.ClassDef) -> list:
    return [stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef)]


def _class_defs(trees):
    return {
        node.name: node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)
    }


CLASSES = _class_defs(MODULES.values())
KNOWN = _class_defs(READERS)  # perfbench's classes type receivers too


def _members(name: str) -> set:
    """Every attribute a class defines in its body or assigns on self."""
    node = KNOWN[name]
    found = {f for f, _, _ in _fields(node)} | {m.name for m in _methods(node)}
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            found.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
            if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                found.add(sub.attr)
    return found


def _class_named(annotation):
    """The scanned class an annotation names (`C`, `"C"`, `C | None`), if any."""
    if isinstance(annotation, ast.Name) and annotation.id in KNOWN:
        return annotation.id
    if isinstance(annotation, ast.Constant) and annotation.value in KNOWN:
        return annotation.value
    if isinstance(annotation, ast.BinOp):
        sides = {_class_named(annotation.left), _class_named(annotation.right)} - {None}
        return sides.pop() if len(sides) == 1 else None
    return None


def _functions(trees):
    """(def, enclosing class or None, enclosing def or None) for every def, outer ones first."""
    out = []

    def visit(node, owner, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, outer)
            elif isinstance(child, ast.FunctionDef):
                out.append((child, owner, outer))
                visit(child, None, child)
            else:
                visit(child, owner, outer)

    for tree in trees:
        visit(tree, None, None)
    return out


def _own(scope):
    """Nodes of `scope` outside the bodies of the defs nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.FunctionDef):
            stack.extend(ast.iter_child_nodes(node))


RETURNS = {
    fn.name: _class_named(fn.returns)
    for fn, _, _ in _functions(READERS)
    if _class_named(fn.returns) is not None
}
FIELD_TYPES = {
    name: {f: _class_named(ann) for f, ann, _ in _fields(node)} for name, node in KNOWN.items()
}


def _naming_convention():
    """Variable name -> class, where the code uses that name for one class only.

    Taken from parameter annotations, plus each class's own snake_case name.
    """
    seen = {}
    for fn, _, _ in _functions(READERS):
        for arg in fn.args.args + fn.args.kwonlyargs:
            cls = _class_named(arg.annotation)
            if cls is not None:
                seen.setdefault(arg.arg, set()).add(cls)
    for name in KNOWN:
        seen.setdefault(re.sub(r"(?<!^)(?=[A-Z])", "_", name.lstrip("_")).lower(), set()).add(name)
    return {var: classes.pop() for var, classes in seen.items() if len(classes) == 1}


CONVENTION = _naming_convention()


def _type_of(expr, env):
    if isinstance(expr, ast.Name):
        return env.get(expr.id, CONVENTION.get(expr.id))
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name if name in KNOWN else RETURNS.get(name)
    if isinstance(expr, ast.Attribute):
        return FIELD_TYPES.get(_type_of(expr.value, env), {}).get(expr.attr)
    return None


def _environment(fn, owner, outer_env):
    """Receiver types inside `fn`; a nested def sees its enclosing def's names."""
    env = dict(outer_env)
    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    for arg in args:
        cls = _class_named(arg.annotation)
        if cls is not None:
            env[arg.arg] = cls
    if owner is not None and args:
        env[args[0].arg] = owner
    for node in _own(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            cls = _type_of(node.value, env)
            if isinstance(target, ast.Name) and cls is not None:
                env[target.id] = cls
    return env


def _reads():
    """(class, member) pairs read on a typed receiver, and member names read on untyped ones."""
    typed, untyped = set(), set()

    def read(receiver, attr, env):
        cls = _type_of(receiver, env)
        if cls is not None and attr in _members(cls):
            typed.add((cls, attr))
        else:
            untyped.add(attr)

    envs = {}
    scopes = [(tree, {}) for tree in READERS]
    for fn, owner, outer in _functions(READERS):
        envs[fn] = _environment(fn, owner, envs.get(outer, {}))
        scopes.append((fn, envs[fn]))
    for scope, env in scopes:
        for node in _own(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read(node.value, node.attr, env)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args:
                cls = _type_of(node.args[0], env)
                if node.func.id == "asdict" and cls is not None:  # serialises every field
                    typed.update((cls, f) for f, _, _ in _fields(KNOWN[cls]))
                elif node.func.id == "getattr" and len(node.args) > 1:
                    if isinstance(node.args[1], ast.Constant):
                        read(node.args[0], node.args[1].value, env)
    return typed, untyped


def _overrides(cls: str, member: str) -> bool:
    """True when a base class outside the package defines `member`: its caller is that base."""
    for module in MODULES:
        obj = getattr(importlib.import_module(f"mfou.{module}"), cls, None)
        if isinstance(obj, type) and obj.__module__ == f"mfou.{module}":
            return any(member in vars(base) for base in obj.__mro__[1:])
    return False


def _unread_members():
    typed, untyped = _reads()
    unread = set()
    for name, node in CLASSES.items():
        members = [m.name for m in _methods(node) if not m.name.startswith("__")]
        if _is_dataclass(node):
            members += [f for f, _, _ in _fields(node)]
        for member in members:
            if (name, member) in typed or member in untyped or _overrides(name, member):
                continue
            unread.add(f"{name}.{member}")
    return unread


def test_every_method_and_field_is_read_in_production():
    assert sorted(_unread_members() - set(ALLOWED)) == []


def test_allowlist_names_only_unread_members():
    # an entry whose member gained a reader, or was deleted, goes too
    assert sorted(set(ALLOWED) - _unread_members()) == []


def _signatures():
    """Callee name -> [(label, parameter names after self, names with a default)] in src/mfou."""
    found = {}
    for fn, owner, _ in _functions(MODULES.values()):
        args = fn.args.posonlyargs + fn.args.args
        defaults = [a.arg for a in args[len(args) - len(fn.args.defaults) :]]
        kwonly = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        defaults += [a.arg for a, d in kwonly if d is not None]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        names = [a.arg for a in args][0 if owner is None or static else 1 :]
        # a class call is a call of its __init__
        callee = owner if fn.name == "__init__" else fn.name
        label = f"{owner}.{fn.name}" if owner else fn.name
        found.setdefault(callee, []).append((label, names, defaults))
    for name, node in CLASSES.items():
        if _is_dataclass(node):
            fields = _fields(node)
            entry = (f"{name}.__init__", [f for f, _, _ in fields], [f for f, _, d in fields if d])
            found.setdefault(name, []).append(entry)
    return found


def _unpassed_defaults():
    passed = set()
    signatures = _signatures()
    for tree in READERS:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            spread = any(k.arg is None for k in call.keywords)
            for label, names, _ in signatures.get(name, ()):
                count = len(names) if starred or spread else len(call.args)
                given = set(names[:count]) | {k.arg for k in call.keywords}
                passed.update((label, p) for p in (names if spread else given))
    return {
        f"{label}({p})"
        for entries in signatures.values()
        for label, _, defaults in entries
        for p in defaults
        if (label, p) not in passed
    }


def test_every_default_valued_parameter_is_passed_in_production():
    assert sorted(_unpassed_defaults()) == []
