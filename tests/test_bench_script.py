"""scripts/bench.py: what its A/B report says changed between two sides'
outputs, and that it reaches becck only through names the package offers
(the root-polish counter of ``polish_calls`` aside)."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_load_package_exposes_the_command_line(bench):
    # the package no longer imports its cli, so load_package must
    try:
        package = bench.load_package("becck_loaded", ROOT)
        assert package.cli.__name__ == "becck_loaded.cli"
        assert package.cli.preset_names() == ("fig2a", "fig2b", "fig3a",
                                              "fig3b", "fig4", "fig5",
                                              "fig6", "fig7", "fig8")
        assert package.cli.preset_spec("fig6").var == "delta_c"
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] ==
                     "becck_loaded"]:
            del sys.modules[name]


CSV = "sweep_value,stable,e_n\n1.0,true,0.25\n2.0,false,\n"
WARNING = "warning: 4 roots\n"


def _run(stdout=CSV, stderr=WARNING, exit=0):
    return {"exit": exit, "stdout": stdout, "stderr": stderr}


@pytest.mark.parametrize("after,change", [
    (_run(), None),
    (_run(CSV.replace("0.25", "0.5")), {"e_n": 0.5}),
    (_run(CSV.replace("true", "false")), {"stable": "text"}),
    (_run(exit=3), {"exit": "text"}),
    (_run(stderr="warning: 3 roots\n"), {"stderr:warning": 0.25}),
], ids=["identical", "csv-number", "flag", "exit", "stderr"])
def test_output_changes_name_what_differs(bench, after, change):
    assert bench.output_changes({"out": after}, {"out": _run()}) == (
        {} if change is None else {"out": change})


def test_an_output_on_one_side_only_is_missing(bench):
    runs = {"a": _run(), "b": _run()}
    assert bench.output_changes({"a": runs["a"]}, runs) == {
        "b": {"missing": "text"}}
    assert bench.output_changes(runs, {"b": runs["b"]}) == {
        "a": {"missing": "text"}}


def test_column_changes_follow_json_key_paths(bench):
    before = '{"params": {"eta": 2.0}, "branches": [{"stable": true}]}'
    after = '{"params": {"eta": 1.0}, "branches": [{"stable": false}]}'
    assert bench.column_changes(before, before) == {}
    assert bench.column_changes(after, before) == {
        "params.eta": 0.5, "branches.stable": "text"}


def _private_names(path: Path) -> set:
    """The ``_``-prefixed (not dunder) names bound at module level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_bench_names_no_private_becck_name_but_the_polish_counter():
    private = set().union(*map(_private_names, sorted(
        (ROOT / "src" / "becck").glob("*.py"))))
    assert {"_bisect", "_root_function", "_load_config_data"} <= private
    used = set()
    for node in ast.walk(ast.parse(SCRIPT.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    assert sorted(used & private) == ["_bisect", "_root_function"]
