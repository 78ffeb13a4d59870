"""Exact-rational generating-series engine for local P2 Gromov-Witten theory,
maximal-contact relative invariants of (P2, E), and the stationary theory of
the elliptic curve."""

from .series import Localp2Error, RatSeries, SeriesError

__all__ = ["Localp2Error", "RatSeries", "SeriesError"]
__version__ = "0.1.0"
