import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uidlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # Demos write their output files to the working directory.
    src = str(Path(uidlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_package_exports_every_module_list():
    from uidlab import bench, codec, collision, core, sim

    modules = [core, codec, collision, bench, sim]
    assert uidlab.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(uidlab.__all__)) == len(uidlab.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(uidlab, name) is getattr(module, name)


def test_int_byte_conversions_name_their_byteorder():
    # The byteorder default of int.from_bytes/to_bytes exists only from
    # Python 3.11; pyproject.toml promises 3.10.
    calls = []
    for path in Path(uidlab.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("from_bytes", "to_bytes"):
                    named = len(node.args) >= 2 or any(kw.arg == "byteorder" for kw in node.keywords)
                    calls.append((f"{path.name}:{node.lineno}", named))
    assert calls, "no from_bytes/to_bytes call found; the scan is looking in the wrong place"
    assert [where for where, named in calls if not named] == []


def test_runtime_imports_only_the_standard_library():
    imported = []
    for path in Path(uidlab.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported += [(f"{path.name}:{node.lineno}", name.partition(".")[0]) for name in names]
    assert {"threading", "zlib"} <= {name for _, name in imported}, "the scan found too little"
    assert [(where, name) for where, name in imported if name not in sys.stdlib_module_names] == []


def test_only_the_cli_prints():
    # Every command's output goes through cli.py; library modules return values.
    found = []
    for path in Path(uidlab.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                found.append((path.name, node.lineno, "print"))
            elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"):
                if isinstance(node.value, ast.Name) and node.value.id == "sys":
                    found.append((path.name, node.lineno, f"sys.{node.attr}"))
            elif isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
                found += [(path.name, item.lineno, item.name) for item in methods if item.name.startswith("render_")]
    assert {"print", "sys.stdout", "sys.stderr"} <= {what for name, _, what in found if name == "cli.py"}, (
        "the scan found too little"
    )
    assert [entry for entry in found if entry[0] != "cli.py" or entry[2].startswith("render_")] == []
