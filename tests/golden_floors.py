"""The floor, conclusive flag and number of inf stretches of every window of
n = 4..139 and of the family ((2k - 1)^2 - 3, k), k = 2..30, in
tests/golden/floors.json, one window per line.

These are the sweep's verdicts, which no change to its float arithmetic
may move; the bits of phi and a* for 7..60 are pinned apart, in
tests/golden/windows.json.  To re-record after a deliberate change, run
this file as a script:

    PYTHONPATH=src python tests/golden_floors.py
"""
import json
import math
import os

from twodist.lrs import KSlice, _sweep, k_max

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "floors.json")
WINDOWS = [(n, k) for n in range(4, 140) for k in range(2, k_max(n) + 1)]
WINDOWS += [((2 * k - 1) ** 2 - 3, k) for k in range(2, 31)]


def load() -> list[list]:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def floor_record(sl: KSlice) -> list:
    floor = sl.omega_hat_nk if math.isfinite(sl.omega_hat_nk) else "inf"
    return [sl.n, sl.k, floor, sl.conclusive, len(sl.inf_ranges)]


if __name__ == "__main__":
    lines = [json.dumps(floor_record(sl)) for sl in _sweep(WINDOWS)]
    with open(PATH, "w", encoding="utf-8", newline="") as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
