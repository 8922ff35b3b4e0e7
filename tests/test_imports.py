"""Every name a package module imports is used by that module, every
export list names what its module defines and the package re-exports, no
module calls a Cholesky routine of numpy or scipy directly, and only
``gpds geweke`` imports ``scipy.stats``."""
import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "gpds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads.  A string constant that is an identifier
    counts too: that covers string annotations and ``__all__`` entries."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def cholesky_calls(tree: ast.Module) -> list[int]:
    """Lines that reach a library ``cholesky`` (``np.linalg.cholesky``,
    ``scipy.linalg.cholesky``, ...) by attribute or by import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cholesky":
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name.split(".")[-1] == "cholesky" for alias in node.names):
            lines.append(node.lineno)
    return lines


def dpotrf_callers(tree: ast.Module) -> set[str]:
    """Names of the functions (or ``<module>``) that call LAPACK ``dpotrf``
    by name or as an attribute."""
    callers = set()

    def visit(node, owner):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "dpotrf":
                callers.add(owner)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return callers


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_factorisations_go_through_the_package(path):
    # every factorisation is gp.chol (from scratch, jittered, one LAPACK
    # dpotrf) or ConditionalSampler._block_chol (the Schur complement of
    # every change to a sampler's row set, in _add_rows)
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = cholesky_calls(tree)
    assert not lines, f"{path.name}: cholesky called directly on lines {lines}"
    callers = dpotrf_callers(tree)
    allowed = {"chol", "_block_chol"} if path.name == "gp.py" else set()
    assert callers <= allowed, f"{path.name}: dpotrf called in {sorted(callers - allowed)}"


def defined_names(tree: ast.Module) -> set[str]:
    """Names the module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def export_list(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def package_imports(module: str) -> set[str]:
    """Names ``gpds/__init__.py`` imports from ``gpds.<module>``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module for alias in node.names}


EXPORTING = [p for p in MODULES if export_list(ast.parse(p.read_text())) is not None]


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_export_list_is_current(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = export_list(tree)
    missing = sorted(set(exported) - defined_names(tree))
    assert not missing, f"{path.name}: __all__ lists undefined names {missing}"
    unlisted = sorted(package_imports(path.stem) - set(exported))
    assert not unlisted, f"{path.name}: the package imports {unlisted} but __all__ omits them"



# Runs every command but geweke on a tiny input in one fresh process, and
# prints, as its last line, whether scipy.stats was loaded after the import
# of gpds.cli and after each command, with the command's exit code.
COLD_START = textwrap.dedent("""
    import contextlib, io, json, sys
    from pathlib import Path

    from gpds.cli import main

    tmp = Path(sys.argv[1])
    cfg = tmp / "run.cfg"
    cfg.write_text("total_iters = 4\\nburn_in = 1\\n"
                   "pred_retained = 3\\npred_burn_in = 1\\n")
    data = ["--data", str(tmp / "data" / "f1.csv")]
    seen = [["import", 0, "scipy.stats" in sys.modules]]
    for command in (["gen-synthetic", "--name", "f1", "--n", "8"],
                    ["sample-prior", "--n", "3"],
                    ["fit", *data],
                    ["predict-density", *data, "--grid", "0:1:3"]):
        out = tmp / ("data" if command[0] == "gen-synthetic" else command[0])
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([*command, "--config", str(cfg), "--seed", "1", "--out", str(out)])
        seen.append([command[0], rc, "scipy.stats" in sys.modules])
    print(json.dumps(seen))
""")


def test_only_geweke_imports_scipy_stats(tmp_path):
    # a fresh process: this one has imported scipy.stats for the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        [step, 0, False] for step in ("import", "gen-synthetic", "sample-prior", "fit",
                                      "predict-density")]
