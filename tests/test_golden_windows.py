"""Bit-exact window results for every (n, k) with n = 7..60, the domain
decided at tol 0 (f0 > 0, fj >= 0) as in every sweep.

tests/golden/windows.json holds phi and a_star as float.hex strings, the
floored bound, the conclusive flag and the exact ends of the inf stretches,
so any change to the sweep's arithmetic that moves a result by one ulp
fails here.  To re-record after a deliberate change, run this file as a
script:

    PYTHONPATH=src python tests/test_golden_windows.py
"""
import json
import math
import os

from twodist.lrs import KSlice, k_max, k_slice

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "windows.json")
WINDOWS = [(n, k) for n in range(7, 61) for k in range(2, k_max(n) + 1)]


def load() -> list[dict]:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def record(sl: KSlice) -> dict:
    return {
        "n": sl.n,
        "k": sl.k,
        "phi": sl.phi.hex(),
        "a_star": sl.a_star.hex(),
        "omega_hat_nk": sl.omega_hat_nk if math.isfinite(sl.omega_hat_nk) else "inf",
        "conclusive": sl.conclusive,
        "inf_ranges": [[lo.hex(), hi.hex()] for lo, hi in sl.inf_ranges],
    }


def test_windows_are_bit_identical():
    want = load()
    assert [(w["n"], w["k"]) for w in want] == WINDOWS
    for expected in want:
        assert record(k_slice(expected["n"], expected["k"])) == expected


if __name__ == "__main__":
    with open(PATH, "w", encoding="utf-8", newline="") as fh:
        json.dump([record(k_slice(n, k)) for n, k in WINDOWS], fh, indent=1)
        fh.write("\n")
