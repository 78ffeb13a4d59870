"""Exact-rational generating-series engine for local P2 Gromov-Witten theory,
maximal-contact relative invariants of (P2, E), and the stationary theory of
the elliptic curve."""

import importlib.util
import sys

from .series import Localp2Error, RatSeries

__all__ = ["Localp2Error", "RatSeries"]
__version__ = "0.1.0"

# The other library modules execute, and so compile, on the first read of
# one of their attributes, so a command compiles only the modules it runs.
# Each is registered here, before any of them can be imported, as the one
# module object in sys.modules and as an attribute of the package.
for _name in ("linalg", "graded", "quasimod", "mirror", "elliptic", "locrel",
              "hae", "ns"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = \
        importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec
