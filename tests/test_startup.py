"""What ``import localp2.cli`` loads, which every command pays for.

The import leaves out the check-only ``localp2.acceptance`` and the
error-path ``traceback``: the commands that need them import them.  It must
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


def modules_loaded_by_cli_import() -> set:
    code = ("import json, sys; before = set(sys.modules); import localp2.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, timeout=60,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_loads_the_traced_modules_and_not_the_checks():
    loaded, traced = modules_loaded_by_cli_import(), tracer_modules()
    assert len(traced) >= 9  # the targets were found
    assert traced <= loaded
    assert not {"localp2.acceptance", "traceback"} & loaded


def test_mirror_data_is_the_only_dataclass():
    # the tracer reads MirrorData.__dataclass_fields__; any other dataclass
    # would generate its methods at every start
    decorated = [node.name for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ClassDef) and any(
                     "dataclass" in ast.unparse(d) for d in node.decorator_list)]
    assert decorated == ["MirrorData"]
