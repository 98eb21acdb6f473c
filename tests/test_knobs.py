"""Every knob in ``src/repro`` is set by something other than a test.

A *knob* is a defaulted parameter of a class's ``__init__`` or a
defaulted field of a ``*Config`` dataclass. One that only tests set is
not an option of the program: it is the module constant it defaults to,
and a test that needs another value monkeypatches the constant. The
scan below finds, for every knob, a call in ``src/``, ``benchmarks/`` or
``examples/`` (``repro.testing`` excluded) that passes it, by keyword or
by position. Calls are matched by the callee's name; ``cls(...)`` names
the enclosing class, ``super().__init__(...)`` its bases,
``**_given(k=v)`` passes ``k`` (when ``v`` is a parameter of the
wrapper, only if the wrapper's own caller passes ``v``), and a function
that forwards its ``**kwargs`` into a call passes on whatever its own
callers pass.

Knobs a workload, figure bench, example or CLI command sets need no
entry below: the scan sees their callers (the health reporter's
``interval`` through ``attach_health_reporter``, a generator's ``seed``
through ``SeededRng.fork``). ``ALLOWED`` holds the knobs kept on
purpose although nothing outside ``tests/`` sets them, each with why.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLERS = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")

#: Knobs no call outside ``tests/`` sets, kept on purpose.
ALLOWED: Dict[Tuple[str, str], str] = {
    ("PlatformConfig", "container_capacity"): (
        "the container shape is hardware, a deployment setting"
    ),
}


def _python_files(root: Path) -> Iterator[Path]:
    for path in sorted(root.rglob("*.py")):
        if "testing" not in path.relative_to(ROOT).parts:
            yield path


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in cls.decorator_list)


def knobs() -> Dict[Tuple[str, str], Tuple[str, object]]:
    """``(class, knob) -> (file:line, positional index or None)``."""
    found: Dict[Tuple[str, str], Tuple[str, object]] = {}
    for path in _python_files(SRC):
        where = path.relative_to(ROOT)
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            if cls.name.endswith("Config") and _is_dataclass(cls):
                fields = [
                    stmt for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)
                ]
                for index, stmt in enumerate(fields):
                    if stmt.value is not None:
                        found[(cls.name, stmt.target.id)] = (
                            f"{where}:{stmt.lineno}", index,
                        )
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                    args = stmt.args
                    positional = (args.posonlyargs + args.args)[1:]
                    first = len(positional) - len(args.defaults)
                    for index, arg in enumerate(positional[first:], first):
                        found[(cls.name, arg.arg)] = (
                            f"{where}:{stmt.lineno}", index,
                        )
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            found[(cls.name, arg.arg)] = (
                                f"{where}:{stmt.lineno}", None,
                            )
    return found


def _callees(call: ast.Call, cls) -> List[str]:
    target = call.func
    if (isinstance(target, ast.Attribute) and target.attr == "__init__"
            and isinstance(target.value, ast.Call)
            and getattr(target.value.func, "id", "") == "super" and cls):
        return [ast.unparse(base).split(".")[-1] for base in cls.bases]
    if isinstance(target, ast.Name):
        return [cls.name if target.id == "cls" and cls else target.id]
    if isinstance(target, ast.Attribute):
        return [target.attr]
    return []


def passed() -> Tuple[Dict[str, Set[str]], Dict[str, int], Set[str]]:
    """Per callee name: the keywords some call passes and the most
    positional arguments one call passes; and the callees some call
    passes a ``**mapping`` this scan cannot resolve."""
    keywords: Dict[str, Set[str]] = defaultdict(set)
    opaque: Set[str] = set()
    positional: Dict[str, int] = defaultdict(int)
    #: wrapper -> callees it hands its ``**kwargs`` to.
    forwards: Dict[str, Set[str]] = defaultdict(set)
    #: ``(wrapper, its parameter, that parameter's position, callee,
    #: keyword)`` for each ``**_given(keyword=parameter)``: the callee is
    #: passed ``keyword`` only when the wrapper is passed ``parameter``.
    relays: List[Tuple[str, str, int, str, str]] = []

    def parameter_index(func, name):
        """Position of ``func``'s parameter ``name`` (``self`` not
        counted), or ``None`` when it has no such parameter."""
        names = [arg.arg for arg in func.args.posonlyargs + func.args.args]
        names = names[1:] if names[:1] in (["self"], ["cls"]) else names
        kwonly = [arg.arg for arg in func.args.kwonlyargs]
        if name in names:
            return names.index(name)
        return len(names) + 10**6 if name in kwonly else None

    def visit(node, cls=None, func=None):
        if isinstance(node, ast.ClassDef):
            cls = node
        elif isinstance(node, ast.FunctionDef):
            func = node
        elif isinstance(node, ast.Call):
            for callee in _callees(node, cls):
                positional[callee] = max(positional[callee], len(node.args))
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        keywords[callee].add(keyword.arg)
                    elif (isinstance(keyword.value, ast.Call)
                          and getattr(keyword.value.func, "id", "") == "_given"):
                        for given in keyword.value.keywords:
                            value = given.value
                            index = (
                                parameter_index(func, value.id)
                                if func is not None and isinstance(value, ast.Name)
                                else None
                            )
                            if index is None:
                                keywords[callee].add(given.arg)
                            else:
                                relays.append(
                                    (func.name, value.id, index, callee, given.arg)
                                )
                    elif func is not None and func.args.kwarg is not None and any(
                        isinstance(n, ast.Name) and n.id == func.args.kwarg.arg
                        for n in ast.walk(keyword.value)
                    ):
                        forwards[func.name].add(callee)
                    else:
                        opaque.add(callee)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    for root in CALLERS:
        for path in _python_files(root):
            visit(ast.parse(path.read_text()))
    changed = True
    while changed:
        changed = False
        for wrapper, callees in forwards.items():
            for callee in callees:
                before = len(keywords[callee])
                keywords[callee] |= keywords[wrapper]
                changed |= len(keywords[callee]) != before
        for wrapper, parameter, index, callee, keyword in relays:
            if keyword not in keywords[callee] and (
                parameter in keywords[wrapper] or index < positional[wrapper]
            ):
                keywords[callee].add(keyword)
                changed = True
    return keywords, positional, opaque


def unset_knobs() -> List[str]:
    """The knobs no call outside ``tests/`` is seen to set (a knob of a
    callee passed an unresolved ``**mapping`` counts as unset)."""
    keywords, positional, opaque = passed()
    return sorted(
        f"{where}  {owner}({name})"
        for (owner, name), (where, index) in knobs().items()
        if (owner in opaque or name not in keywords[owner])
        and not (index is not None and index < positional[owner])
        and (owner, name) not in ALLOWED
    )


def test_every_knob_has_a_caller_outside_tests():
    assert unset_knobs() == []


def test_every_allowed_knob_still_exists_and_is_unset():
    keywords, _, _ = passed()
    found = knobs()
    stale = [
        knob for knob in ALLOWED
        if knob not in found or knob[1] in keywords[knob[0]]
    ]
    assert stale == []


def test_the_scan_sees_knobs_and_callers():
    found = knobs()
    keywords, positional, _ = passed()
    assert len(found) > 50
    assert ("PlatformConfig", "num_shards") in found
    # Passed through benchmarks/e2e/workloads.py's platform_config(**wanted).
    assert "step_interval" in keywords["PlatformConfig"]
    # Passed through Turbine.attach_health_reporter's **_given(interval=...).
    assert "interval" in keywords["HealthReporter"]
    # Passed by position, by SeededRng.fork.
    assert positional["SeededRng"] >= 1
