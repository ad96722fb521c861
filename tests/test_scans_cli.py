import contextlib
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chiralpol.cli import main
from chiralpol.config import read_csv_metadata
from chiralpol.couplings import DerivedCouplings
from chiralpol.emitters import Emitter
from chiralpol.fields import SPEED_OF_LIGHT_AU, CavityMode
from chiralpol.hopfield import discrimination, enantiomer_difference, polariton_frequencies
from chiralpol.scans import (
    CAVITY_DEFAULTS,
    N_SCAN_DEFAULTS,
    run_oracle_suite,
    scan_cavity,
    scan_n,
)

SMALL_CAVITY = ["--set", "omega_k_points=5", "--set", "xi_points=5"]


def run_cli(argv):
    buffer = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buffer.getvalue(), err.getvalue()


class TestExitCodes:
    def test_ok(self):
        code, out, _ = run_cli(["scan-cavity", *SMALL_CAVITY])
        assert code == 0
        assert out.startswith("# command = scan-cavity")

    def test_unknown_key_is_config_error(self):
        code, _, err = run_cli(["scan-cavity", "--set", "bogus=1"])
        assert code == 1
        assert "bogus" in err

    def test_bad_value_is_config_error(self):
        code, _, err = run_cli(["scan-n", "--set", "n_max_exp=soon"])
        assert code == 1
        assert "n_max_exp" in err

    def test_unreadable_config_file(self):
        code, _, err = run_cli(["scan-n", "--config", "/nonexistent/path.cfg"])
        assert code == 1

    def test_oracle_deviation_exit(self):
        code, _, err = run_cli(
            ["oracle", "--set", "oracle_sets=2", "--set", "tol=1e-18"]
        )
        assert code == 2
        assert "deviation" in err

    def test_strict_instability_exit(self):
        code, out, err = run_cli(
            [
                "scan-n",
                "--strict",
                "--set",
                "selfpol=local",
                "--set",
                "n_max_exp=16",
            ]
        )
        assert code == 3
        assert "unstable" in err
        assert out  # table still written before the strict exit

    @pytest.mark.parametrize(
        "argv",
        [
            # both stability factors are negative at xi = +-40: real frequencies,
            # but H is not bounded below
            [
                "--set",
                "quadrupole=0,0,0,0,0,-30000,0,-30000,0",
                "--set",
                "xi_min=-40",
                "--set",
                "xi_max=40",
                "--set",
                "xi_points=9",
                "--set",
                "omega_k_points=3",
            ],
            ["--set", "eta=1e10", *SMALL_CAVITY],
        ],
        ids=["quadrupole", "eta=1e10"],
    )
    def test_unbounded_hamiltonian_rows_are_flagged(self, argv):
        code, out, err = run_cli(["scan-cavity", *argv])
        assert code == 0
        assert "Traceback" not in err
        rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
        assert "1" in [line.rsplit(",", 1)[1] for line in rows]
        code, _, err = run_cli(["scan-cavity", "--strict", *argv])
        assert code == 3
        assert "Traceback" not in err

    def test_help_does_not_leak_exit_codes(self):
        code, _, _ = run_cli(["--help"])
        assert code == 0

    def test_unknown_flag_is_config_error(self):
        code, _, _ = run_cli(["scan-cavity", "--frobnicate"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-n", "--set", "mu=nan,0,0"],
            ["scan-cavity", "--set", "eta=inf"],
            ["scan-cavity", "--set", "xi_min=nan"],
            ["scan-dispersion", "--set", "k_par_max=-1"],
            ["scan-cavity", "--set", "omega_k_min=-1"],
            ["scan-n", "--set", "omega_k=0"],
            ["scan-cavity", "--set", "n_emitters=0"],
            ["scan-cavity", "--set", "xi_rotation=2,0,0,0,1,0,0,0,1"],
            ["scan-n", "--set", "mu=0,0,0", "--set", "roll_delta=1"],
            ["oracle", "--set", "oracle_sets=0"],
            ["oracle", "--set", "oracle_sets=-3"],
            ["scan-cavity", "--seed", "3"],
            ["scan-cavity", "--set", "eta=1e200"],
            ["scan-cavity", "--set", "mu=1e200,0,0"],
            ["scan-n", "--set", "eta=1e100"],
            ["scan-dispersion", "--set", "eta=1e200"],
        ],
        ids=lambda argv: "_".join(a for a in argv if a != "--set"),
    )
    def test_malformed_input_is_a_one_line_config_error(self, argv):
        code, out, err = run_cli(argv)
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""


class TestDeterminism:
    def test_identical_config_gives_identical_bytes(self):
        _, first, _ = run_cli(["scan-cavity", *SMALL_CAVITY])
        _, second, _ = run_cli(["scan-cavity", *SMALL_CAVITY])
        assert first == second

    def test_oracle_rerun_is_byte_identical(self):
        args = ["oracle", "--set", "oracle_sets=3", "--seed", "99"]
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first == second

    def test_seed_changes_oracle_draws(self):
        _, one, _ = run_cli(["oracle", "--set", "oracle_sets=3", "--seed", "1"])
        _, two, _ = run_cli(["oracle", "--set", "oracle_sets=3", "--seed", "2"])
        assert one != two

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-cavity", *SMALL_CAVITY],
            ["scan-n", "--set", "n_max_exp=6"],
            ["scan-dispersion"],
            ["oracle", "--set", "oracle_sets=2", "--set", "fock_cutoff=12"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_metadata_round_trips_to_identical_run(self, tmp_path, argv):
        command = argv[0]
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli([*argv, "--out", str(out)])
        assert code == 0
        first = out.read_text()
        meta = read_csv_metadata(out)
        assert meta.pop("command") == command
        # only the oracle draws random numbers
        assert ("seed" in meta) == (command == "oracle")
        rerun_args = [command]
        for key, value in meta.items():
            rerun_args += ["--set", f"{key}={value}"]
        code, second, _ = run_cli(rerun_args)
        assert code == 0
        assert second == first

    def test_file_and_stdout_agree(self, tmp_path):
        out = tmp_path / "table.csv"
        _, stdout_text, _ = run_cli(["scan-cavity", *SMALL_CAVITY])
        run_cli(["scan-cavity", *SMALL_CAVITY, "--out", str(out)])
        assert out.read_text() == stdout_text


class TestScanCavity:
    def test_achiral_slice_is_standard_hopfield(self):
        table = scan_cavity(
            {**CAVITY_DEFAULTS, "omega_k_points": "7", "xi_points": "3"}
        )
        names = table.column_names
        for row in table.rows:
            record = dict(zip(names, row))
            if record["xi"] != 0.0:
                continue
            c = DerivedCouplings(
                omega_k_bar=record["omega_k_bar"],
                omega_m_tilde=record["omega_m_tilde"],
                g_tilde=record["omega_k_bar"] * 0.0,  # rebuilt below
                xi_tilde=0.0,
                g_bar=0.0,
                xi_bar=0.0,
                n_emitters=100,
                handedness=1,
            )
            # rebuild the achiral couplings directly from the system block
            from chiralpol.emitters import Emitter
            from chiralpol.fields import CavityMode
            from chiralpol.couplings import derive_couplings

            emitter = Emitter.collinear(0.1, [2.0, 0, 0], xi=0.0)
            mode = CavityMode(1, record["omega_k"], 0.001, 0.1 / 137.035999, 0.0)
            upper, lower = polariton_frequencies(derive_couplings(emitter, mode, 100))
            assert record["omega_plus"] == pytest.approx(upper, rel=1e-14)
            assert record["omega_minus"] == pytest.approx(lower, rel=1e-14)

    def test_ultrastrong_achiral_column_is_exact(self):
        # eta=1e10: omega_k_bar*omega_m_tilde ~ 1e10 while f1 ~ 1e-14, so a
        # stability factor formed as a difference is pure roundoff here
        table = scan_cavity({**CAVITY_DEFAULTS, "eta": "1e10"})
        column = [row for row in table.rows if row[1] == 0.0]
        assert len(column) == 41
        for row in column:
            record = dict(zip(table.column_names, row))
            assert record["unstable"] == 0.0
            for branch in ("plus", "minus"):
                total = record[f"photon_frac_{branch}"] + record[f"matter_frac_{branch}"]
                assert abs(total - 1.0) <= 1e-12
            # a dipole-only emitter at xi = 0: Omega+ Omega- = omega_k_bar*omega_m
            product = record["omega_plus"] * record["omega_minus"]
            assert product == pytest.approx(record["omega_k_bar"] * 0.1, rel=1e-13)

    def test_handedness_symmetry_across_the_grid(self):
        # 5 points is a count at which plain linspace(-1, 1) happens to be
        # symmetric; 6, 11 and 21 are counts at which it is not
        for xi_points in (5, 6, 11, 21):
            base = {**CAVITY_DEFAULTS, "omega_k_points": "5", "xi_points": str(xi_points)}
            left = scan_cavity(base)
            right = scan_cavity({**base, "handedness": "-1"})
            names = left.column_names
            xi_idx = names.index("xi")
            xis = np.unique(left.column("xi"))
            assert len(xis) == xi_points
            assert np.array_equal(xis, -xis[::-1])
            assert xis[0] == -1.0 and xis[-1] == 1.0
            right_rows = {
                (row[0], -row[xi_idx]): row for row in right.rows
            }
            for row in left.rows:
                mirror = right_rows[(row[0], row[xi_idx])]
                assert_allclose(row[2:], mirror[2:], atol=1e-12)


class TestScanN:
    def test_achiral_deltas_vanish_exactly(self):
        table = scan_n({**N_SCAN_DEFAULTS, "xi": "0", "n_max_exp": "8"})
        for name in ("delta_omega_plus", "delta_omega_minus", "delta_e_vac"):
            assert all(v == 0.0 for v in table.column(name))

    def test_unstable_rows_are_sentineled_not_nan(self):
        table = scan_n(
            {**N_SCAN_DEFAULTS, "selfpol": "local", "n_max_exp": "16"}
        )
        flags = table.column("unstable")
        assert flags[-1] == 1.0 and flags[0] == 0.0
        for row in table.rows:
            assert all(np.isfinite(v) for v in row)
            record = dict(zip(table.column_names, row))
            if record["unstable"]:
                assert record["delta_e_vac"] == 0.0

    @pytest.mark.parametrize("selfpol", ["collective", "local"])
    def test_rows_equal_the_shared_enantiomer_difference(self, selfpol):
        table = scan_n({**N_SCAN_DEFAULTS, "selfpol": selfpol})
        xi = float(N_SCAN_DEFAULTS["xi"])
        left = Emitter.collinear(0.1, [2.0, 0, 0], xi=xi)
        right = Emitter.collinear(0.1, [2.0, 0, 0], xi=-xi)
        mode = CavityMode(1, 0.1, 0.001, 0.1 / SPEED_OF_LIGHT_AU, 0.0)
        stable = 0
        for n, d_up, d_low, d_evac, _, unstable in table.rows:
            if unstable:
                continue
            stable += 1
            if selfpol == "collective":
                expected = discrimination(left, mode, int(n))
            else:
                expected = enantiomer_difference(left, right, mode, int(n), selfpol)
            assert (d_up, d_low, d_evac) == tuple(expected)
        assert stable > 0

    def test_low_n_slope_is_linear(self):
        table = scan_n({**N_SCAN_DEFAULTS, "n_max_exp": "3"})
        slopes = table.column("slope_delta_e_vac")
        assert slopes[1] == pytest.approx(1.0, abs=0.01)


class TestOracleSuiteSampling:
    @pytest.mark.parametrize("check", ["0", "1"])
    def test_converged_column_reports_the_convergence_check(self, check):
        code, out, _ = run_cli(
            [
                "oracle",
                "--set", "oracle_sets=2",
                "--set", "fock_cutoff=12",
                "--set", f"check_convergence={check}",
            ]
        )
        assert code == 0
        header, *rows = [line for line in out.splitlines() if not line.startswith("#")]
        column = header.split(",").index("converged")
        converged = [float(row.split(",")[column]) for row in rows]
        assert len(converged) == 2
        if check == "1":
            assert all(value in (0.0, 1.0) for value in converged)
        else:
            assert all(np.isnan(value) for value in converged)

    def test_samples_respect_criterion_ranges(self):
        table = run_oracle_suite(
            {
                "oracle_sets": "25",
                "fock_cutoff": "12",
                "fock_tol": "1e-8",
                "tol": "1e-4",
                "check_convergence": "0",
                "seed": "5",
            }
        )
        w1 = np.array(table.column("omega_k_bar"))
        w2 = np.array(table.column("omega_m_tilde"))
        g = np.array(table.column("coupling"))
        xi = np.array(table.column("xi_lambda"))
        assert np.all((0.5 <= w1) & (w1 <= 2.0))
        assert np.all((0.5 <= w2) & (w2 <= 2.0))
        assert np.all(g <= 0.3 * w2)
        assert np.all(np.abs(xi) <= 1.0)
        assert max(table.column("dev_plus") + table.column("dev_minus")) < 1e-4
