"""Every public or private name that src/localp2 defines at module level,
and every non-dunder method, must be used by the package itself or by the
benchmark in perfbench/; a name that only tests use is dead library code.

A use is an identifier (a name, an attribute or an imported name) in
src/localp2 or perfbench/, or a "module:Qual.attr" target string in
perfbench/, whose tracer resolves functions by name.

A name can be used and its definition still never run: a method that a
subclass shadows, or one read only on a path no command takes.  So the
commands are also run, under a profiler, in one fresh interpreter (no cache
filled by an earlier test hides a call), and each of those functions and
methods must be entered, apart from the few that perfbench/ alone reads.

A cache must also be read back: run the same way plus one deeper solve,
each command starting with every cache empty, every lru_cache in
src/localp2 must be hit, apart from the few whose cache_info() perfbench/
alone reads.

And the package raises on purpose only for bad outside data or a failed
exact check: it defines two exception classes, and every other raise names
a builtin, which the command line reports as a bug.
"""

import ast
import builtins
import os
import re
from collections import Counter
from pathlib import Path

from test_startup import run_fresh

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localp2"
BENCH = ROOT / "perfbench"
TARGET = re.compile(r"^\w+:[\w.]+$")


def defined(tree):
    """Module-level function and class nodes, and non-dunder method nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item


def used(tree, targets: bool):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif targets and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and TARGET.match(node.value):
            yield from re.split(r"[:.]", node.value)


def test_every_library_name_is_used_outside_tests():
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(used(tree, targets=False))
    for path in sorted(BENCH.glob("*.py")):
        uses.update(used(ast.parse(path.read_text()), targets=True))
    # a recursive call inside a definition does not use it
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in trees.items() for node in defined(tree)
              if uses[node.name] == Counter(used(node, False))[node.name]]
    assert unused == []


# qualified name -> (the perfbench/ file, the line of it that reads the name)
PERFBENCH_ONLY = {
    "elliptic.theta_z": ("tracer.py", '("elliptic.theta_z", "elliptic:theta_z"),'),
    "hae.build_conifold_frame": ("child.py", "frame = hae.build_conifold_frame(md)"),
    "elliptic.npoint_disconnected": (
        "tracer.py", '("elliptic.npoint_disconnected", "elliptic:npoint_disconnected"),'),
    "series.RatSeries.revert": (
        "tracer.py", '("series.revert", "series:RatSeries.revert"),'),
    "series.RatSeries.coeffs": (
        "tracer.py", "return max(_bits(s.log_coeff), max(map(_bits, s.coeffs)))"),
}

# every command, in one interpreter; {cfg} is a config file, {out} a path
COMMANDS = [
    ["selftest"],
    ["compute", "mirror", "--order", "5"],
    ["compute", "elliptic", "--genus", "2", "--parts", "1,1"],
    ["--config", "{cfg}", "compute", "local", "--genus", "2"],
    ["--config", "{cfg}", "compute", "relative", "--genus", "1"],
    ["solve", "--genus", "3", "--target", "both"],
    ["verify", "hae", "--genus", "2", "--target", "local"],
    ["verify", "gap", "--genus", "2", "--target", "relative"],
    ["--out", "{out}", "verify", "ramanujan", "--order", "10"],
    ["ns", "compare", "--gmax", "1", "--dmax", "1"],
    ["--help"],
]

# record(package, argvs) prints, as one JSON list, "module:line:name" of
# each function of the package entered while main runs each argv, line being
# its code's first line (a decorator's, if any); co_qualname is new in
# Python 3.11
RECORD = """
import contextlib, io, json, sys

def record(package, argvs):
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            module = code.co_filename[len(package):-len(".py")]
            entered.add(f"{module}:{code.co_firstlineno}:{code.co_name}")

    from localp2.cli import main
    sys.setprofile(profile)
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    sys.setprofile(None)
    print(json.dumps(sorted(entered)))
"""


def functions(path, tree):
    """(qualified name, "module:line:name" as RECORD prints it) of each
    function and method ``defined`` finds."""
    owner = {item: f"{node.name}." for node in tree.body
             if isinstance(node, ast.ClassDef) for item in node.body}
    for node in defined(tree):
        if isinstance(node, ast.FunctionDef):
            line = min(d.lineno for d in [node, *node.decorator_list])
            yield owner.get(node, "") + node.name, f"{path.stem}:{line}:{node.name}"


def test_every_library_function_is_entered_by_the_commands(tmp_path):
    cfg = tmp_path / "q5.cfg"
    cfg.write_text("q_order = 5\n")
    argvs = [[a.format(cfg=cfg, out=tmp_path / "out.txt") for a in argv]
             for argv in COMMANDS]
    entered = set(run_fresh(RECORD + f"record({str(PACKAGE) + os.sep!r}, {argvs!r})"))
    never = sorted(f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
                   for name, key in functions(path, ast.parse(path.read_text()))
                   if key not in entered)
    assert never == sorted(PERFBENCH_ONLY)
    for name, (file, line) in PERFBENCH_ONLY.items():
        assert line in map(str.strip, (BENCH / file).read_text().splitlines()), name


# lru_cache -> (the perfbench/ file, the line of it that reads its
# cache_info()): caches that no command reads twice
CACHE_INFO_ONLY = {
    "mirror.build_mirror_data": (
        "tracer.py", '("mirror.build_mirror_data", "mirror:build_mirror_data"),'),
    "elliptic.npoint_disconnected": (
        "tracer.py", '("elliptic.npoint_disconnected", "elliptic:npoint_disconnected"),'),
    "elliptic.theta_z": ("tracer.py", '("elliptic.theta_z", "elliptic:theta_z"),'),
}

# traffic(caches, argvs) prints, as one JSON object, the hits of each named
# lru_cache ("module.function") summed while main runs each argv; before
# each, every one of them and locrel's table of the E-images is emptied
TRAFFIC = """
import contextlib, importlib, io, json

def traffic(caches, argvs):
    from localp2 import locrel
    from localp2.cli import main
    from localp2.series import Powers
    funcs = {name: getattr(importlib.import_module("localp2." + module), attr)
             for name in caches for module, _, attr in [name.partition(".")]}
    hits = dict.fromkeys(caches, 0)
    for argv in argvs:
        for f in funcs.values():
            f.cache_clear()
        locrel._E_BMOD = Powers(*locrel._E_BMOD.bases)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        for name, f in funcs.items():
            hits[name] += f.cache_info().hits
    print(json.dumps(hits))
"""


def lru_caches():
    """"module.function" of each module-level function of the package
    decorated with lru_cache."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and any(
                    "lru_cache" in ast.unparse(d) for d in node.decorator_list):
                yield f"{path.stem}.{node.name}"


def test_every_cache_is_hit_by_the_commands(tmp_path):
    cfg = tmp_path / "q5.cfg"
    cfg.write_text("q_order = 5\n")
    argvs = [[a.format(cfg=cfg, out=tmp_path / "out.txt") for a in argv]
             for argv in COMMANDS + [["solve", "--genus", "5", "--target", "both"]]]
    caches = list(lru_caches())
    assert len(caches) >= 10  # the decorators were found
    hits = run_fresh(TRAFFIC + f"traffic({caches!r}, {argvs!r})")
    assert sorted(name for name, n in hits.items() if not n) == sorted(CACHE_INFO_ONLY)
    for name, (file, line) in CACHE_INFO_ONLY.items():
        assert line in map(str.strip, (BENCH / file).read_text().splitlines()), name


def is_exception(name, ours=()):
    """Whether ``name`` is one of ``ours`` or a builtin exception class."""
    return name in ours or isinstance(getattr(builtins, name, None), type) \
        and issubclass(getattr(builtins, name), BaseException)


def test_two_exception_classes_and_builtins_raise():
    # series.Localp2Error for a failed exact check or bad outside data, and
    # cli.UsageError, its subclass for flags and the config file (exit 2);
    # a broken precondition raises a builtin and exits 3 with its traceback
    classes, raised = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (path.stem, [ast.unparse(b) for b in node.bases])
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append((f"{path.name}:{node.lineno}", ast.unparse(exc)))
    ours = {}
    while new := {name: module for name, (module, bases) in classes.items()
                  if name not in ours and any(is_exception(b, ours) for b in bases)}:
        ours.update(new)
    assert ours == {"Localp2Error": "series", "UsageError": "cli"}
    assert len(raised) > 50  # the raises were found
    assert [(where, name) for where, name in raised
            if not is_exception(name, ours)] == []
