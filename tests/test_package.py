"""The package's public surface."""

import ast
import pathlib
import re

import pytest

import volumize
from volumize.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _defaulted_params(tree, module):
    """(name, parameter, position) for every defaulted parameter of a public
    function or method; position counts the call's positional arguments
    (self excluded) and is None for a keyword-only parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef)):
            continue
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args.posonlyargs + fn.args.args
            bound = isinstance(node, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list)
            first = len(args) - len(fn.args.defaults)
            for i, arg in enumerate(args[first:], first):
                yield f"{module}.{fn.name}", arg.arg, i - bound
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield f"{module}.{fn.name}", arg.arg, None


def _passes(call, param, position):
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_exported_name_resolves_once():
    names = volumize.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(volumize, n)] == []


def test_every_defaulted_parameter_has_a_caller():
    # a setting that no call in the repository passes is a constant: make it one
    calls = {}
    for _, tree in _trees("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{name}({param})"
        for path, tree in _trees("src/volumize")
        for name, param, position in _defaulted_params(tree, path.stem)
        if not any(_passes(c, param, position)
                   for c in calls.get(name.split(".")[-1], []))
    ]
    assert unset == [], "no call passes " + ", ".join(unset)


def test_pool_is_the_only_module_that_forks():
    # one fork primitive: _pool.served; every process volumize starts is one
    banned = {"multiprocessing", "concurrent", "subprocess", "threading"}
    found = []
    for path, tree in _trees("src/volumize"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                roots = {(node.module or "").split(".")[0]}
            elif (isinstance(node, ast.Attribute) and node.attr == "fork"
                  and getattr(node.value, "id", None) == "os"):
                roots = {"os.fork"}
            else:
                continue
            allowed = banned - {"concurrent"} if path.stem == "_pool" else set()
            found += [f"{path.stem}: {r}" for r in sorted(roots & (banned | {"os.fork"}))
                      if r not in allowed]
    assert found == []


def _imported(tree):
    """The top-level names of the modules tree imports, a relative import
    as "." plus its module."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("." * node.level + (node.module or "").split(".")[0])
    return roots


def test_pool_is_the_only_module_that_pickles():
    # one wire format at every process boundary, _pool.served's; the numeric
    # kernels encode nothing and need numpy alone
    imported = {path.stem: _imported(tree) for path, tree in _trees("src/volumize")}
    assert [m for m, roots in imported.items() if "pickle" in roots] == ["_pool"]
    assert imported["_kernels"] == {"numpy"}


def test_readme_synopsis_matches_the_parser():
    # the five `volumize <command> ...` lines under README's `## CLI`
    cli = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n")[1]
    synopsis = {m[1]: set(re.findall(r"--[a-z-]+", m[2]))
                for m in re.finditer(r"^ {4}volumize (\w+)(.*)$",
                                     cli.split("\n## ")[0], re.M)}
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    defined = {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
               for name, sp in commands.items()}
    assert synopsis == defined


README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$",
                             (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(README_EXAMPLES) >= 3


@pytest.mark.parametrize("code", [pytest.param(code, id=f"example{i}")
                                  for i, code in enumerate(README_EXAMPLES)])
def test_readme_example_runs(tmp_path, monkeypatch, capsys, code):
    # each block alone, as a reader pastes it; the sweep example writes out/sweep
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
