"""Writes perfbench/reference.json from the package as it stands.

    PYTHONPATH=src python3 perfbench/make_reference.py

The stored values are what the workload checks compare against, so run this
only on a commit whose outputs are known to be right, and commit the result
with the reason. It takes about two minutes.
"""

import json

from chiralpol import cli

import workloads as w

CAVITY_VALUES = (
    "omega_k_bar", "omega_m_tilde", "omega_plus", "omega_minus", "photon_frac_plus",
    "matter_frac_plus", "photon_frac_minus", "matter_frac_minus", "e_vac",
)
EMPTY_LATTICE = {"columns": [], "points": [], "unstable": []}
SCAN_N_VALUES = ("delta_omega_plus", "delta_omega_minus", "delta_e_vac", "slope_delta_e_vac")


def table(argv):
    code, text = w.run_cli(cli.main, argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    header, lines = w.split_csv(text)
    return [dict(zip(header, line.split(","))) for line in lines]


def cavity() -> dict:
    grid = w.CavityScan({"scan-cavity": EMPTY_LATTICE}, w.GRID_POINTS)
    points, unstable = {}, set()
    # shifts 0 and 20 together cover every point of the lattice
    for shift in (0, w.OMEGA_SHIFTS - 1):
        for number, row in enumerate(table(grid.argv(shift))):
            a, ix = divmod(number, w.GRID_POINTS)
            io = shift + a
            if row["unstable"] != "0":
                unstable.add((io, ix))
            elif io % w.REFERENCE_STRIDE == 0 and ix % w.REFERENCE_STRIDE == 0:
                points[io, ix] = [float(row[name]) for name in CAVITY_VALUES]
    return {
        "columns": list(CAVITY_VALUES),
        "points": [[io, ix, *values] for (io, ix), values in sorted(points.items())],
        "unstable": sorted(unstable),
    }


def small_scans() -> dict:
    tables = {}
    small = w.SmallScans({"small-scans": {}, "scan-cavity": EMPTY_LATTICE})
    for kind in w.SMALL_KINDS[:2]:
        for xi in w.XI_POOL:
            rows = table(small.argv(kind, xi))
            flags = "".join(row["unstable"] for row in rows)
            stored = [
                [k, *(float(row[name]) for name in SCAN_N_VALUES)]
                for k, row in enumerate(rows)
                if k % 4 == 0 and row["unstable"] == "0"
            ]
            tables[f"{kind.split()[1]} {xi}"] = {"flags": flags, "rows": stored}
    dispersion = table(small.argv("scan-dispersion", None))
    columns = list(dispersion[0])
    return {
        "scan-n": {"columns": list(SCAN_N_VALUES), "tables": tables},
        "scan-dispersion": {
            "columns": columns,
            "rows": [[float(row[name]) for name in columns] for row in dispersion],
        },
    }


def oracle_suite() -> dict:
    suite = w.OracleSuite({"oracle-suite": {}})
    return {
        str(seed): [[row[name] for name in w.ORACLE_PARAMS] for row in table(suite.argv(seed))]
        for seed in w.ORACLE_SEEDS
    }


def main() -> None:
    reference = {
        "scan-cavity": cavity(),
        "small-scans": small_scans(),
        "oracle-suite": oracle_suite(),
    }
    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
