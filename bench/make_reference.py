"""Regenerate the benchmark's reference data from the library at this commit.

Run from the repository root:

    python3 bench/make_reference.py

It writes bench/reference.json and bench/table_7_40.csv.  The table rows and
the two quoted maxima are the paper's values (Musin, arXiv 0801.3706) and are
written out literally here, not computed; the script stops if the library
disagrees with them.  The certificate pool for the delsarte-check queries is
built with the library's own candidate construction, and each entry's
expected bound is re-derived from its coefficients.  Only rerun it when the
reference itself is meant to change.
"""
from __future__ import annotations

import io
import json
import math
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from twodist import cli, lrs  # noqa: E402
from twodist.bound_polys import CANDIDATE_INDICES, InnerProductPair, build_candidate  # noqa: E402

# n -> (omega_hat, k_star) for the 7..40 bound table.
TABLE_ROWS = {
    7: (28, 2), 8: (31, 2), 9: (34, 2), 10: (37, 2), 11: (40, 2), 12: (44, 2),
    13: (47, 2), 14: (52, 2), 15: (56, 2), 16: (61, 2), 17: (66, 2),
    18: (76, 3), 19: (96, 3), 20: (126, 3), 21: (176, 3), 22: (275, 3),
    23: (277, 3), 24: (280, 3), 25: (284, 3), 26: (288, 3), 27: (294, 3),
    28: (299, 3), 29: (305, 3), 30: (312, 3), 31: (319, 3), 32: (327, 3),
    33: (334, 3), 34: (342, 3), 35: (360, 2), 36: (416, 2), 37: (488, 2),
    38: (584, 2), 39: (721, 2), 40: (928, 2),
}
# (n, k) -> (target, tolerance) for the window maxima quoted in the paper.
QUOTED_PHI = {(25, 3): (284.14, 0.05), (23, 3): (277.095, 0.01)}

POOL_DIMENSIONS = (7, 10, 16, 22, 23, 25, 31, 40, 50, 60)
# Points inside the windows k = 2 and k = 3, as fractions of the window.
POOL_FRACTIONS = (0.15, 0.5, 0.85)


def certificate_pool() -> list[dict]:
    pool = []
    for n in POOL_DIMENSIONS:
        for k in (2, 3):
            lo, hi = lrs.interval(k)
            for frac in POOL_FRACTIONS:
                a = lo + frac * (hi - lo)
                b = lrs.b_k(k, a)
                pair = InnerProductPair(n, a, b)
                for i in CANDIDATE_INDICES:
                    cand = build_candidate(i, pair)
                    if not cand.in_domain:
                        continue
                    coeffs = [float(x) for x in cand.expansion.coeffs]
                    bound = math.floor(sum(coeffs) / coeffs[0] + 1e-9)
                    if bound != math.floor(cand.value + 1e-9):
                        raise SystemExit(f"pool entry n={n} a={a} i={i}: bound mismatch")
                    pool.append(
                        {"n": n, "a": a, "b": b, "i": i, "coeffs": coeffs, "bound": bound}
                    )
    return pool


def main() -> None:
    lrs.k_slice.cache_clear()
    for row in lrs.table(7, 40):
        if (row.omega_hat, row.k_star) != TABLE_ROWS[row.n]:
            raise SystemExit(f"library disagrees with the reference at n={row.n}")
    for (n, k), (target, tol) in QUOTED_PHI.items():
        if abs(lrs.phi(n, k) - target) > tol:
            raise SystemExit(f"library disagrees with the quoted phi({n},{k})")
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.main(["table", "--n-min", "7", "--n-max", "40", "--format", "csv"])
    csv_text = buf.getvalue()
    with open(os.path.join(HERE, "table_7_40.csv"), "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    reference = {
        "table_rows": {str(n): list(v) for n, v in TABLE_ROWS.items()},
        "quoted_phi": [
            {"n": n, "k": k, "target": t, "tol": tol} for (n, k), (t, tol) in QUOTED_PHI.items()
        ],
        "certificate_pool": certificate_pool(),
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
