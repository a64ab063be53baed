"""The package's import budget and public surface, each in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=300)


def _run(code: str) -> str:
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_cli_import_loads_only_what_point_and_classify_run():
    loaded = _run("import sys, hypercurv.cli\n"
                  "print(' '.join(sorted(m for m in sys.modules if m.startswith('hypercurv'))))")
    assert loaded.split() == ["hypercurv", "hypercurv.classify", "hypercurv.cli",
                              "hypercurv.extrinsic", "hypercurv.lambda2", "hypercurv.tolerances"]


def test_bare_import_loads_no_submodule():
    loaded = _run("import sys, hypercurv\n"
                  "print(' '.join(m for m in sys.modules if m.startswith('hypercurv')))")
    assert loaded.split() == ["hypercurv"]


def test_every_public_name_resolves_by_attribute_and_star_import():
    _run("import hypercurv\n"
         "names = hypercurv.__all__\n"
         "assert names == sorted(set(names)) and len(names) == 53, names\n"
         "assert all(getattr(hypercurv, name) is not None for name in names)\n"
         "assert set(names) <= set(dir(hypercurv))\n"
         "space = {}\n"
         "exec('from hypercurv import *', space)\n"
         "assert {name for name in space if name != '__builtins__'} == set(names)\n")


def test_each_submodule_star_import_holds_its_listed_names():
    # the names __init__ lists under a submodule and the ones it exports
    # itself must not drift apart
    _run("import hypercurv\n"
         "for module, names in hypercurv._EXPORTS.items():\n"
         "    space = {}\n"
         "    exec(f'from hypercurv.{module} import *', space)\n"
         "    assert set(names) <= set(space), (module, set(names) - set(space))\n")


def test_unknown_name_is_an_attribute_error():
    _run("import hypercurv\n"
         "try:\n"
         "    hypercurv.no_such_name\n"
         "except AttributeError as exc:\n"
         "    assert 'no_such_name' in str(exc)\n"
         "else:\n"
         "    raise SystemExit('no AttributeError')\n")


@pytest.mark.parametrize("module", ["bounds", "classify", "extrinsic", "immersions", "lambda2",
                                    "polyverify", "tolerances"])
def test_submodules_resolve_after_a_bare_import(module):
    _run(f"import hypercurv, sys\nassert hypercurv.{module} is sys.modules['hypercurv.{module}']")


def test_registry_is_reachable_from_a_bare_import():
    assert int(_run("import hypercurv\nprint(len(hypercurv.polyverify.REGISTRY))")) > 0


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "ricTFsq"],
    ["integrate", "--geometry", "geodesic:4", "--res", "2"],
    ["bounds", "--chi", "2", "--vol", "10"],
], ids=["verify", "integrate", "bounds"])
def test_lazily_imported_subcommands_run_from_a_fresh_interpreter(argv):
    proc = _python("-m", "hypercurv.cli", *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("{")
