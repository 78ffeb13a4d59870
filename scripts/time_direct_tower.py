"""Time the direct relative tower: anomaly + gap alone, no elliptic work.

    PYTHONPATH=src python scripts/time_direct_tower.py GENUS ORDER

builds the mirror data at ORDER, solves the relative tower through GENUS
by ``hae.solve_genus`` and prints the solve time in seconds and a sha256
of every solved element, so two checkouts can be compared for equal
elements as well as for speed.
"""

import hashlib
import sys
import time

from localp2.hae import solve_genus
from localp2.locrel import Correspondence
from localp2.mirror import build_mirror_data


def main() -> int:
    genus, order = map(int, sys.argv[1:3])
    md = build_mirror_data(order)
    corr = Correspondence(md)
    t0 = time.perf_counter()
    solve_genus(genus, "relative", md, corr)
    elapsed = time.perf_counter() - t0
    elements = corr.relative.elements
    digest = hashlib.sha256("\n".join(
        repr(elements[g]) for g in sorted(elements)).encode()).hexdigest()
    print(f"genus {genus} order {order}: {elapsed:.2f} s sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
