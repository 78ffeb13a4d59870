"""What ``import localp2.cli`` loads, which every command pays for.

The import leaves out ``argparse`` with the ``gettext`` it pulls in (needed
only when ``build_parser`` parses a command line), ``pathlib`` (files are
read and written with the builtin ``open``), the check-only
``localp2.acceptance`` (loaded by ``selftest`` alone; ``solve --target
both`` compares its two relative routes itself), the error-path
``traceback`` and ``json`` (read or written only by the paths that use it).
No module of the package imports ``dataclasses``, which would pull in
``inspect``, ``ast``, ``dis`` and ``tokenize``: ``MirrorData`` is a frozen
namedtuple record, so no command loads them, not even one that builds
mirror data.
It executes only ``localp2``, ``localp2.series`` and ``localp2.cli``: the
package registers its other modules as lazy, so each executes on the first
read of one of its attributes and a command compiles only the modules it
runs.
Every module whose functions perfbench/tracer.py patches must still be in
``sys.modules``, since the tracer resolves them there right after that
import.  Whether a module has executed is read from its type, because
reading any attribute of a lazy module executes it.
"""

import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localp2"
TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_modules() -> set:
    """The localp2 modules named by the tracer's SPANNED, COUNTED and
    CACHED targets ("module:qualified.attribute")."""
    out = set()
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id in (
                "SPANNED", "COUNTED", "CACHED"):
            out |= {f"localp2.{target.partition(':')[0]}"
                    for _, target in ast.literal_eval(node.value)}
    return out


def run_fresh(code: str, *flags: str):
    """Run ``code`` in a fresh interpreter, started with ``flags``, that
    imports localp2 from src; return what it prints as one JSON value."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT,
                          timeout=60, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def modules_loaded_by_cli_import() -> set:
    # json is imported after the measured import, so that it is seen there
    return set(run_fresh(
        "import sys; before = set(sys.modules); import localp2.cli; "
        "loaded = sorted(set(sys.modules) - before); "
        "import json; print(json.dumps(loaded))"))


def test_cli_import_loads_the_traced_modules_and_not_the_checks():
    loaded, traced = modules_loaded_by_cli_import(), tracer_modules()
    assert len(traced) >= 9  # the targets were found
    assert traced <= loaded
    assert not {"localp2.acceptance", "traceback", "dataclasses", "inspect",
                "json", "argparse", "gettext"} & loaded


# prints the sorted names of the localp2 modules that have executed: a lazy
# module turns into a plain module when it executes
PRINT_EXECUTED = """
import json, types
print(json.dumps(sorted(name for name, mod in sys.modules.items()
                        if name.partition(".")[0] == "localp2"
                        and type(mod) is types.ModuleType)))
"""


def test_cli_import_executes_only_the_package_series_and_cli():
    assert run_fresh("import sys; import localp2.cli" + PRINT_EXECUTED) == \
        ["localp2", "localp2.cli", "localp2.series"]


CORE = ["localp2", "localp2.cli", "localp2.graded", "localp2.series"]

# command -> the localp2 modules that have executed when it returns: the
# local side runs no elliptic code and solves no linear system, and the
# mirror data needs no quasimodular forms
EXECUTED_BY = {
    "verify ramanujan": sorted(CORE + ["localp2.quasimod"]),
    "compute elliptic --genus 2 --parts 1,1": sorted(CORE + [
        "localp2.elliptic", "localp2.linalg", "localp2.quasimod"]),
    "compute mirror --order 5": sorted(CORE + ["localp2.mirror"]),
    "--config {cfg} compute relative --genus 0": sorted(CORE + [
        "localp2.hae", "localp2.locrel", "localp2.mirror",
        "localp2.quasimod"]),
    "solve --genus 2 --target local": sorted(CORE + [
        "localp2.hae", "localp2.locrel", "localp2.mirror",
        "localp2.quasimod"]),
    "--config {cfg} ns compare --gmax 0 --dmax 1": sorted(CORE + [
        "localp2.hae", "localp2.locrel", "localp2.mirror", "localp2.ns",
        "localp2.quasimod"]),
}


def command_argv(command: str, tmp_path) -> list:
    """main's arguments for an EXECUTED_BY command, its output discarded."""
    cfg = tmp_path / "q5.cfg"
    cfg.write_text("q_order = 5\n")
    return ["--out", os.devnull, *shlex.split(command.format(cfg=cfg))]


@pytest.mark.parametrize("command", sorted(EXECUTED_BY))
def test_command_executes_only_the_modules_it_runs(command, tmp_path):
    argv = command_argv(command, tmp_path)
    assert run_fresh(f"import sys; from localp2.cli import main; "
                     f"assert main({argv!r}) == 0" + PRINT_EXECUTED) == \
        EXECUTED_BY[command]


ONE_MIRROR = """
import json, sys
import localp2.mirror as first
import localp2.cli
x = first.BModElement.monomial(1, s=1)
y = localp2.cli.mirror.BModElement.monomial(2, x=1)
print(json.dumps([first is sys.modules["localp2.mirror"] is localp2.cli.mirror,
                  repr(x * y)]))
"""


def test_submodule_imported_before_cli_is_the_one_module_object():
    # a second module object would have its own BModElement, and the
    # product of two elements from the two would raise TypeError
    assert run_fresh(ONE_MIRROR) == [True, "I11^-0 * [(2)*S^1X^1]"]


def test_lazy_module_is_the_package_attribute():
    assert run_fresh(
        "import json, sys, types; import localp2.cli, localp2; "
        "hae = sys.modules['localp2.hae']; print(json.dumps("
        "[localp2.hae is hae, type(hae) is types.ModuleType]))") == \
        [True, False]


def test_cli_import_without_site_loads_no_parser_or_pathlib():
    # under -S no .pth file can preload pathlib, so the import's own
    # modules are all that is seen
    assert run_fresh(
        "import sys; import localp2.cli; import json; print(json.dumps("
        "sorted({'argparse', 'gettext', 'pathlib'} & set(sys.modules))))",
        "-S") == []


SOLVE_BOTH = """
import json, os, sys
from localp2.cli import main
status = main(["--out", os.devnull, "solve", "--genus", "3", "--target", "both"])
print(json.dumps([status, "localp2.acceptance" in sys.modules]))
"""


def test_solve_both_loads_no_check_harness():
    # the consistency triangle is one element comparison in cli; only
    # selftest needs acceptance
    assert run_fresh(SOLVE_BOTH) == [0, False]


def test_no_module_imports_dataclasses():
    # nested and function-level imports included
    imports = [path.name for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Import)
               and any(a.name.partition(".")[0] == "dataclasses"
                       for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module
               and node.module.partition(".")[0] == "dataclasses"]
    assert imports == []


INTROSPECTION = ["dataclasses", "inspect", "ast", "dis", "tokenize"]


@pytest.mark.parametrize("command", sorted(EXECUTED_BY))
def test_command_without_site_loads_no_introspection(command, tmp_path):
    # under -S no .pth file can preload them, so what is seen is what the
    # command itself loaded, mirror data included
    argv = command_argv(command, tmp_path)
    assert run_fresh(
        f"import sys; from localp2.cli import main; "
        f"assert main({argv!r}) == 0; "
        f"loaded = sorted(set({INTROSPECTION!r}) & set(sys.modules)); "
        f"import json; print(json.dumps(loaded))", "-S") == []
