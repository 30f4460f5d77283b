"""The package runs on the standard library alone: no runtime dependency, declared or imported."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oribij"


def _imported_packages(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_module_imports_only_the_standard_library_and_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    allowed = set(sys.stdlib_module_names) | {"oribij"}
    outside = {path.name: sorted(_imported_packages(path) - allowed) for path in modules}
    assert outside == {path.name: [] for path in modules}


def test_the_project_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\b.*$", project, re.M) == ["dependencies = []"]


def test_only_signatures_imports_fourier_motzkin():
    # the acyclicity certificate is its one call site left in the package
    importers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.rpartition(".")[2] == "fourier_motzkin" for name in names):
                importers.add(path.name)
    assert importers == {"signatures.py"}


def _raised_text(path: Path) -> str:
    """The string constants of every raise statement in one module, joined."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return "\n".join(node.value for raise_ in ast.walk(tree) if isinstance(raise_, ast.Raise)
                     for node in ast.walk(raise_)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))


def test_one_signature_gate_and_one_union_find():
    # explicit signatures and the basis map share signatures._checked_choices
    gates = {path.name for path in sorted(PACKAGE.rglob("*.py"))
             if re.search("chosen twice|is not a signed", _raised_text(path))}
    assert gates == {"signatures.py"}
    # the oracle counts components through core._components
    oracle = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    names = {node.name for node in ast.walk(oracle) if isinstance(node, ast.FunctionDef)}
    names |= {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
    assert not names & {"find", "parent", "union", "connected_without"}
    assert "_components" in names


def test_one_door_per_kind_of_input():
    # the modules whose raise statements spell out each door's refusal; the
    # callers pass their own wording to the door as an argument, never in a raise
    messages = ("outside the ground set", "the table's ground set disagrees",
                "sample count must not be negative", "unknown reversal kind")
    raised = {path.name: _raised_text(path) for path in sorted(PACKAGE.rglob("*.py"))}
    doors = {message: {name for name, text in raised.items() if message in text}
             for message in messages}
    assert doors == {
        "outside the ground set": {"core.py"},
        "the table's ground set disagrees": {"geometry.py"},
        "sample count must not be negative": {"geometry.py"},
        "unknown reversal kind": {"core.py"},
    }


def test_every_flag_a_command_declares_is_read_and_no_switch_is_test_only():
    from oribij import cli

    # the attributes each cli function reads off its args, with those of the
    # cli functions it calls (_load_rep, _load_signatures, _emit)
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name):
        found = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
                found.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions
                  and any(getattr(arg, "id", None) == "args" for arg in node.args)):
                found |= reads(node.func.id)
        return found

    parsers = next(action for action in cli._build_parser()._actions
                   if action.dest == "command").choices
    assert set(parsers) == set(cli._COMMANDS)
    for command, (_, handler, flags) in cli._COMMANDS.items():
        declared = {flag[2:].replace("-", "_") for flag in flags} | {"graph", "matroid", "out"}
        parsed = {action.dest for action in parsers[command]._actions} - {"help"}
        assert reads(handler.__name__) == declared == parsed, command
    # every cache use goes through the one bounded pair cache
    assert not [path.name for path in sorted(PACKAGE.rglob("*.py"))
                if "use_cache" in path.read_text(encoding="utf-8")]


def test_no_cli_flag_is_read_as_a_truth_value():
    # a flag is absent only when it is None: an empty value must reach its
    # reader (open, parse_weights) and be refused there, never taken as absent
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    tested = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            tested.append(node.test)
        elif isinstance(node, ast.BoolOp):
            tested.extend(node.values)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tested.append(node.operand)
        elif isinstance(node, ast.comprehension):
            tested.extend(node.ifs)
    truthy = [ast.unparse(node) for node in tested
              if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"]
    assert truthy == []
