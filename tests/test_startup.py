"""What ``import localp2.cli`` loads, which every command pays for.

The import leaves out ``argparse`` with the ``gettext`` it pulls in (needed
only when ``build_parser`` parses a command line), ``pathlib`` (files are
read and written with the builtin ``open``), the check-only
``localp2.acceptance`` (loaded by ``selftest`` alone; ``solve --target
both`` reads its triangle from ``hae``), the error-path ``traceback``,
``json`` (read or written only by the paths that use it) and
``dataclasses`` with the ``inspect`` it pulls in (needed only when
``build_mirror_data`` first makes ``MirrorData`` a dataclass).  It must
still load every module whose functions perfbench/tracer.py patches, since
the tracer resolves them in ``sys.modules`` right after that import.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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
    # the consistency triangle lives in hae; only selftest needs acceptance
    assert run_fresh(SOLVE_BOTH) == [0, False]


DATACLASSES_IN_PACKAGE = """
import importlib, json, pkgutil, sys
import localp2

def dataclass_classes():
    return sorted(f"{name}.{obj.__name__}" for name, mod in sys.modules.items()
                  if name.startswith("localp2.") for obj in vars(mod).values()
                  if isinstance(obj, type) and obj.__module__ == name
                  and "__dataclass_fields__" in obj.__dict__)

for info in pkgutil.iter_modules(localp2.__path__):
    importlib.import_module(f"localp2.{info.name}")
imported = dataclass_classes(), "dataclasses" in sys.modules
localp2.mirror.build_mirror_data(5)
print(json.dumps([imported, dataclass_classes()]))
"""


def test_mirror_data_is_the_only_dataclass():
    # the tracer reads MirrorData.__dataclass_fields__; any other dataclass
    # would generate its methods at every start.  Importing every module of
    # the package makes none and loads no dataclasses; the first build of
    # mirror data makes MirrorData one, and nothing else.
    (imported, loaded), built = run_fresh(DATACLASSES_IN_PACKAGE)
    assert (imported, loaded) == ([], False)
    assert built == ["localp2.mirror.MirrorData"]
    # no class of the package is made a dataclass anywhere else, nested
    # definitions included: the one use of the name is the call in
    # build_mirror_data
    uses = [path.name for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and node.id == "dataclass"
            or isinstance(node, ast.Attribute) and node.attr == "dataclass"]
    assert uses == ["mirror.py"]
