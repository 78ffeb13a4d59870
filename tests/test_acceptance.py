"""End-to-end acceptance run: every criterion at its stated (exact)
tolerance, one printed pass/fail line each."""

import sys

import pytest

from localp2 import acceptance, cli, locrel
from localp2.series import Powers


def _run(idx, name, fn):
    ok, detail = fn()
    cli.verdicts(print, [(f"criterion {idx:02d} [{name}]", ok, detail)])
    assert ok, f"criterion {idx} [{name}] failed: {detail}"


@pytest.mark.parametrize(
    "idx,name,fn",
    [(i, name, fn) for i, (name, fn) in enumerate(acceptance.ALL_CRITERIA, 1)],
    ids=[f"c{i:02d}_{name.replace(' ', '_')}"
         for i, (name, _) in enumerate(acceptance.ALL_CRITERIA, 1)],
)
def test_criteria_1_to_11(idx, name, fn):
    _run(idx, name, fn)


def _clear_every_cache():
    """Empty every lru_cache in localp2 (acceptance.context, mirror data
    with the conifold frames and power tables they hold, elliptic and
    quasimodular tables) and the module-level table of E-images, so the
    next report starts as cold as a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("localp2."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    locrel._E_BMOD = Powers(*locrel._E_BMOD.bases)


def test_criterion_12_determinism():
    _clear_every_cache()
    first = acceptance.run_report()
    assert [(label, type(ok)) for label, ok, _ in first] == [
        (f"criterion {i:02d} [{name}]", bool)
        for i, (name, _) in enumerate(acceptance.ALL_CRITERIA, 1)]
    row = acceptance.criterion_12_determinism(first)
    cli.verdicts(print, [row])
    assert row[1], row[2]
