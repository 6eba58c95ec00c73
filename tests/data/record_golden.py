"""Rewrite ``golden_replications.csv`` from the public, serial API.

For each golden spec of ``tests/test_simulate.py`` and each replication,
the table comes from ``generate_table`` and is fitted by ``fit_path``
along the spec's betas.  A converged fit writes its alpha0 and alpha1 and,
for a spec with a hypothesis, ``z_statistic``; a replication without
interior data, an unconverged fit and a fit whose Z test fails leave the
estimate columns empty, as the studies drop them.  Values are written by
``csv`` with its default ``\\r\\n`` line ends.

Run from the repository root:

    PYTHONPATH=src python tests/data/record_golden.py

``--compare A B`` rewrites nothing: it reads two golden CSVs and prints
``identical``, or per float column the largest absolute and relative move
among the rows kept in both (as ``fingerprint.py --compare`` words it),
then each row whose kept/dropped status changed and each ``level_power``
row whose reject decision ``|statistic| > z_{level/2}``, at the golden
spec's level, flipped:

    PYTHONPATH=src python tests/data/record_golden.py \\
        --compare before.csv tests/data/golden_replications.csv
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent)]

from fingerprint import float_move  # noqa: E402
from oneshotdpd import (NoInteriorData, OneShotError, fit_path,  # noqa: E402
                        generate_table, z_statistic)
from oneshotdpd.inference import _critical_value  # noqa: E402
from test_simulate import GOLDEN, golden_spec  # noqa: E402

FLOATS = ("alpha0", "alpha1", "statistic")


def replication_rows(study):
    spec = golden_spec(study)
    for i in range(spec.replications):
        try:
            path = fit_path(generate_table(spec, i), spec.betas)
        except NoInteriorData:
            path = [None] * len(spec.betas)
        for beta, result in zip(spec.betas, path):
            values = ["", "", ""]
            if result is not None and result.converged:
                try:
                    statistic = "" if spec.hypothesis is None else \
                        z_statistic(result, spec.plan,
                                    spec.hypothesis).statistic
                except OneShotError:
                    pass
                else:
                    values = [result.params.alpha0, result.params.alpha1,
                              statistic]
            yield [study, i, beta] + values


def read_golden(path) -> dict:
    """``{"study replication beta": row}`` of a golden CSV."""
    with open(path, newline="", encoding="utf-8") as handle:
        return {" ".join((row["study"], row["replication"], row["beta"])):
                row for row in csv.DictReader(handle)}


def compare_lines(path_a, path_b) -> list:
    """How the golden CSV at ``path_b`` moved from the one at ``path_a``."""
    a, b = read_golden(path_a), read_golden(path_b)
    z_crit = _critical_value(golden_spec("level_power").level)
    moves, decisions = [], []
    for column in FLOATS:
        pairs = [(float(a[key][column]), float(b[key][column]))
                 for key in a if key in b and a[key][column]
                 and b[key][column]]
        x, y = np.array(pairs).reshape(-1, 2).T
        moves.append((column, float_move(x, y)))
    for key in [*a, *(key for key in b if key not in a)]:
        if key not in a or key not in b:
            decisions.append(f"{key}  only in {path_a if key in a else path_b}")
            continue
        kept = [row[key]["alpha0"] != "" for row in (a, b)]
        if kept[0] != kept[1]:
            decisions.append(f"{key}  " + " -> ".join(
                "kept" if k else "dropped" for k in kept))
        elif key.startswith("level_power ") and kept[0]:
            stats = [float(row[key]["statistic"]) for row in (a, b)]
            reject = [abs(z) > z_crit for z in stats]
            if reject[0] != reject[1]:
                decisions.append(
                    f"{key}  reject {reject[0]} -> {reject[1]}  (statistic "
                    f"{stats[0]!r} -> {stats[1]!r}, z {z_crit:.6g})")
    if not decisions and not any(move for _, move in moves):
        return ["identical"]
    return [f"{column}  {move or 'identical'}"
            for column, move in moves] + decisions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two golden CSVs instead of rewriting")
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare_lines(*args.compare)))
        return
    with open(GOLDEN, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["study", "replication", "beta", "alpha0", "alpha1",
                         "statistic"])
        for study in ("level_power", "rmse"):
            writer.writerows(replication_rows(study))


if __name__ == "__main__":
    main()
