"""Source hygiene of the package, checked on its syntax trees."""

from __future__ import annotations

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import stdrefine
from stdrefine import model, textlang

PACKAGE = Path(stdrefine.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_names_they_use(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert unused == [], f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_importing_the_console_loads_neither_dataclasses_nor_inspect():
    # Records are declared without generating code, so starting the console
    # needs neither module; each would cost milliseconds on every call.
    src = str(PACKAGE.resolve().parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, stdrefine.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout == "[]\n"


def test_model_does_not_import_the_interpreter():
    # The interpreter is built on the model, not the other way round; a
    # function-local import would hide the cycle, so every import counts.
    tree = ast.parse((PACKAGE / "model.py").read_text())
    offending = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            sources = {base, *(base + sep + a.name for a in node.names)}
        elif isinstance(node, ast.Import):
            sources = {a.name for a in node.names}
        else:
            continue
        if sources & {".interp", "stdrefine.interp"}:
            offending.append(node.lineno)
    assert offending == [], f"model.py imports the interpreter at lines {offending}"


def test_only_the_interpreter_constructs_enabled_transitions_and_step_results():
    # `Machine` is the one exploration engine; everything else asks a
    # machine's `enabled` and `step` instead of deciding them itself.
    offending = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "interp.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and _called_name(node) in {"EnabledTransition", "StepResult"}
    ]
    assert offending == [], f"built outside interp.py: {', '.join(offending)}"


def _called_name(node: ast.Call):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_truth_test_of_eval(node: ast.AST) -> bool:
    """`eval_expr(...) is True` or `eval_expr(...) is not True`."""
    if not (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)):
        return False
    return (
        _called_name(node.left) == "eval_expr"
        and len(node.ops) == 1
        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is True
    )


def test_guard_holds_is_the_only_truth_test():
    # Whether an expression holds is decided in one place, conjunct by
    # conjunct; everywhere else asks `guard_holds`.
    offending = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "guard_holds"
            for n in ast.walk(f)
        }
        offending += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_truth_test_of_eval(node) and id(node) not in allowed
        ]
    assert offending == [], f"truth tests outside guard_holds: {', '.join(offending)}"


def test_only_the_machine_solves_postconditions():
    # Which primed valuations satisfy a postcondition is decided by
    # `Machine.solve` alone; a rule side condition asks the machine.
    offending = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "interp.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and _called_name(node) == "guard_holds"
        and (len(node.args) >= 5 or any(k.arg == "primed" for k in node.keywords))
    ]
    assert offending == [], f"postconditions solved outside interp.py: {', '.join(offending)}"


def test_only_the_machine_tests_a_guard():
    # Where a guard holds is decided by the interpreter (`Machine.guarded`
    # for a rule side condition); refine evaluates no expression itself.
    offending = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name not in ("model.py", "interp.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _called_name(node) == "guard_holds"
    ]
    assert offending == [], f"guards tested outside interp.py: {', '.join(offending)}"
    imported = _imported(ast.parse((PACKAGE / "refine.py").read_text()))
    assert sorted({"guard_holds", "eval_expr", "reads"} & set(imported)) == []


def test_only_trace_inclusion_reads_trace_set_entries():
    # `trace_inclusion` is the one comparison of trace sets; equivalence and
    # conflict detection ask it instead of reading entries themselves.
    offending = []
    for name in ("refine.py", "features.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        allowed = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "trace_inclusion"
            for n in ast.walk(f)
        }
        offending += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("entries", "entry")
            and id(node) not in allowed
        ]
    assert offending == [], f"trace set entries read outside trace_inclusion: {', '.join(offending)}"


def test_only_the_machine_lists_valuations():
    # Attribute valuations are listed once, by `Machine.valuations`.
    defined = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "enumerate_valuations"
    ]
    assert defined == [], f"enumerate_valuations is defined at {', '.join(defined)}"


def test_only_the_machine_binds_an_environment():
    # An environment is bound to a diagram's declarations when a `Binding`
    # is made (by a `Machine`, or by a request's `Bindings` for all its
    # machines), and nowhere else; everything else asks a machine for its
    # tables.
    offending = []
    sites = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(n)
            for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and c.name == "Binding"
            for f in c.body
            if isinstance(f, ast.FunctionDef) and f.name == "__init__"
            for n in ast.walk(f)
        }
        calls = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "bind_environment"
        ]
        sites += [f"{path.name}:{node.lineno}" for node in calls]
        offending += [f"{path.name}:{node.lineno}" for node in calls if id(node) not in allowed]
    assert offending == [], f"environments bound outside Binding.__init__: {', '.join(offending)}"
    assert len(sites) == 1, sites


def test_the_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(stdrefine.__all__) == sorted({*_imported(tree), "__version__"})


def test_only_resolve_names_gives_identifiers_meaning():
    # A bare identifier becomes a parameter, attribute or enum member in
    # model.py (`resolve_names`) alone; the JSON reader builds nodes through
    # its tag table, not by name.
    resolved = {"ParamRef", "AttrRef", "EnumLit"}
    offending = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "model.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _called_name(node) in resolved
    ]
    assert offending == [], f"resolved names built outside model.py: {', '.join(offending)}"


@pytest.mark.parametrize("name", ["_parse_expr", "_parse_atom", "_parse_transition"])
def test_the_transition_parser_reads_no_scope(name):
    # A transition is read the same whatever machine it is read for, and is
    # resolved once it is read.
    signature = inspect.signature(getattr(textlang, name))
    for param in signature.parameters.values():
        assert param.annotation is not param.empty, f"{name}: {param.name} is not annotated"
        assert not re.search(r"\b(Scope|Signature)\b", str(param.annotation)), f"{name}{signature}"


def test_textlang_resolves_names_in_one_place():
    # Only `_resolve`, which reports a name error at its token, hands what the
    # parser read to `resolve_names` or `resolve_transition`.
    tree = ast.parse((PACKAGE / "textlang.py").read_text())

    def uses(node: ast.AST) -> list[int]:
        return [
            n.lineno
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id in ("resolve_names", "resolve_transition")
        ]

    helper = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_resolve")
    assert uses(helper) and uses(tree) == uses(helper)


def _schema_branches(definition: dict, key: str) -> dict:
    """Each tag of a std/1 schema definition, with the other keys its
    objects may carry."""
    branches = {}
    for branch in definition["oneOf"]:
        tag = branch["properties"][key]
        for name in [tag["const"]] if "const" in tag else tag["enum"]:
            branches[name] = set(branch["properties"]) - {key}
            assert set(branch["required"]) == set(branch["properties"])
    return branches


@pytest.mark.parametrize(
    "union, tags, definition, key",
    [
        (model.Expr, textlang._EXPR_TAGS, "expr", "node"),
        (model.Sort, textlang._SORT_TAGS, "sort", "kind"),
    ],
    ids=["expr", "sort"],
)
def test_every_node_has_a_std1_tag_that_the_schema_knows(union, tags, definition, key):
    # A node added to the model without syntax fails here, as does a tag or
    # a field that the schema does not describe.
    assert set(typing.get_args(union)) == set(tags)
    schema = json.loads((PACKAGE / "schemas" / "std.schema.json").read_text())
    branches = _schema_branches(schema["definitions"][definition], key)
    assert set(branches) == set(tags.values())
    for kind, tag in tags.items():
        assert branches[tag] == set(kind._fields), tag


def test_the_child_table_lists_exactly_the_expression_fields():
    # `reads` and `map_children` know a node's sub-expressions from this
    # table alone, so a node added without an entry would hide its children.
    for kind in typing.get_args(model.Expr):
        fields = tuple(n for n in kind._fields if re.search(r"\bExpr\b", kind.__annotations__[n]))
        assert model.CHILD_FIELDS.get(kind, ()) == fields, kind.__name__
    assert set(model.CHILD_FIELDS) <= set(typing.get_args(model.Expr))


def test_every_spelled_operator_is_computed_and_sort_checked():
    spelled = {op for level in textlang._BINARY_LEVELS for op in level.values()}
    assert spelled == set(model.OPERATORS)
    ctx = model.SortContext({}, {}, {})
    for op in sorted(spelled):
        errors: list[str] = []
        model.infer_kind(model.BinOp(op, model.TRUE, model.TRUE), ctx, errors, op)
        assert not [e for e in errors if "unknown operator" in e], op
