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
"""

import csv
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from oneshotdpd import (NoInteriorData, OneShotError, fit_path,  # noqa: E402
                        generate_table, z_statistic)
from test_simulate import GOLDEN, golden_spec  # noqa: E402


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


def main():
    with open(GOLDEN, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["study", "replication", "beta", "alpha0", "alpha1",
                         "statistic"])
        for study in ("level_power", "rmse"):
            writer.writerows(replication_rows(study))


if __name__ == "__main__":
    main()
