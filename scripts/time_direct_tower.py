"""Time the direct relative tower: anomaly + gap alone, no elliptic work.

    PYTHONPATH=src python scripts/time_direct_tower.py GENUS ORDER

builds the mirror data at ORDER, solves the relative tower through GENUS
by ``hae.solve_genus`` and prints the solve time in seconds and a sha256
of every solved element, so two checkouts can be compared for equal
elements as well as for speed.  A second line compares degrees 1-4 of the
flat expansion of every solved genus 2..GENUS with the sheaf side of the
shipped Omega_1..Omega_4 (``ns.ns_genus``), which shares no code with the
solve or with q -> Q, and ends in PASS or FAIL.
"""

import hashlib
import sys
import time

from localp2.hae import solve_genus
from localp2.locrel import Correspondence, flat_expansion
from localp2.mirror import build_mirror_data
from localp2.ns import default_omega_path, load_omega, ns_genus


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
    table = load_omega(default_omega_path())
    genera = range(2, genus + 1)
    wrong = [g for g in genera
             if flat_expansion(corr, g, "relative").coeff_list(1, 4)
             != ns_genus(table, g, 4).coeff_list(1, 4)]
    verdict = "PASS" if not wrong else f"FAIL at genus {wrong}"
    print(f"sheaf side, degrees 1-4 of genus 2..{genus}: "
          f"{4 * len(genera)} cells, {verdict}")
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
