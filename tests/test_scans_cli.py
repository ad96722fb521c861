import contextlib
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chiralpol import cli, fock_oracle
from chiralpol.cli import main
from chiralpol.config import read_csv_metadata
from chiralpol.couplings import DerivedCouplings
from chiralpol.emitters import Emitter
from chiralpol.fields import SPEED_OF_LIGHT_AU, CavityMode
from chiralpol.hopfield import discrimination, polariton_frequencies
from chiralpol.scans import (
    CAVITY_DEFAULTS,
    N_SCAN_DEFAULTS,
    ORACLE_DEFAULTS,
    SCAN_COMMANDS,
    run_oracle_suite,
    scan_cavity,
    scan_n,
)

SRC = Path(__file__).resolve().parents[1] / "src"
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

    def test_oracle_e0_offset_exit(self, monkeypatch):
        # every level shifted alike: the gaps still match, only E0 is off
        # (two sets are searched in process, where the patch is seen)
        lowest = fock_oracle._lowest
        monkeypatch.setattr(fock_oracle, "_lowest", lambda band, count: lowest(band, count) + 1e-3)
        code, _, err = run_cli(
            ["oracle", "--set", "oracle_sets=2", "--set", "fock_cutoff=12"]
        )
        assert code == 2
        assert "deviation" in err

    @pytest.mark.parametrize("cutoff", ["101", "10000000000000"])
    def test_huge_fock_cutoff_is_a_config_error(self, cutoff):
        code, _, err = run_cli(
            ["oracle", "--set", "oracle_sets=1", "--set", f"fock_cutoff={cutoff}"]
        )
        assert code == 1
        assert err.startswith("config error:") and "cutoff" in err
        assert "Traceback" not in err

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
            # the incidence angle atan(k_par/k_z) rounds to pi/2
            ["scan-dispersion", "--set", "k_par_max=1e300"],
            ["scan-dispersion", "--set", "k_par_min=1e300"],
            ["oracle", "--seed", "-1"],
            ["oracle", "--set", "seed=-1"],
            # omega_m^2 underflows, so omega_m_tilde^2 is 0
            ["scan-cavity", "--set", "omega_m=1e-320"],
            ["scan-n", "--set", "omega_m=1e-320"],
            # integers beyond what NumPy takes: N above uint64, grids above
            # its array size limit
            ["scan-cavity", "--set", "n_emitters=18446744073709551616"],
            ["scan-dispersion", "--set", "n_emitters=18446744073709551616"],
            ["scan-dispersion", "--set", "k_par_points=9223372036854775807"],
            ["scan-cavity", "--set", "omega_k_points=100000000000000000000000"],
            # xi_max - xi_min overflows to inf
            [
                "scan-cavity",
                *("--set", "xi_min=-1e308", "--set", "xi_max=1e308"),
                *("--set", "xi_points=3", "--set", "omega_k_points=2"),
            ],
            ["oracle", "--set", "tol=0"],
            ["oracle", "--set", "tol=-1"],
            # an output that cannot be opened: a missing directory, a directory
            ["scan-n", "--out", "/nonexistent/dir/x.csv"],
            ["scan-n", "--out", "."],
        ],
        ids=lambda argv: "_".join(a for a in argv if a != "--set"),
    )
    def test_malformed_input_is_a_one_line_config_error(self, argv):
        code, out, err = run_cli(argv)
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""

    def test_an_unwritable_out_fails_before_the_run(self, tmp_path, monkeypatch):
        def not_run(table):
            raise AssertionError("the run started")

        monkeypatch.setitem(SCAN_COMMANDS, "oracle", (ORACLE_DEFAULTS, not_run))
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(["oracle", "--set", "oracle_sets=20", "--out", str(path)])
        assert code == 1 and out == ""
        assert err == f"config error: [Errno 2] No such file or directory: '{path}'\n"

    def test_a_config_file_not_in_utf8_is_a_one_line_config_error(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("xi = 0.5  # \xe9\n".encode("latin-1"))
        code, out, err = run_cli(["scan-n", "--config", str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"config error: cannot read config file {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, lines_read",
        [
            # 160000 rows, far more than the pipe holds: the run is still
            # writing when the reader goes away
            (["scan-cavity", "--set", "omega_k_points=400", "--set", "xi_points=400"], 1),
            # a table small enough to sit in stdout's buffer until the flush
            (["scan-n"], 0),
        ],
        ids=["scan-cavity-400x400", "scan-n"],
    )
    def test_a_closed_stdout_exits_1_without_a_traceback(self, argv, lines_read):
        # a block-buffered stdout, as in a shell pipeline
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        child = subprocess.Popen(
            [sys.executable, "-m", "chiralpol.cli", *argv],
            env={**env, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for _ in range(lines_read):
            assert child.stdout.readline().startswith(b"# command = ")
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_an_unidentified_ladder_writes_its_csv_and_exits_2(self):
        # at fock_tol=1 set 0 shows no stiff gap: its fit has a NaN residual
        code, out, err = run_cli(
            ["oracle", "--set", "fock_tol=1", "--set", "fock_cutoff=12", "--set", "oracle_sets=2"]
        )
        assert code == 2
        assert re.fullmatch(r"oracle deviation \S+ exceeds tol 1\.000e-07\n", err)
        header, *rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(rows) == 2
        first = dict(zip(header.split(","), rows[0].split(",")))
        assert (first["ladder_residual"], first["ambiguous"]) == ("nan", "1")

    def test_a_fock_error_names_its_oracle_key(self):
        code, _, err = run_cli(["oracle", "--set", "fock_tol=0"])
        assert code == 1
        assert err.startswith("config error: fock_tol ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-dispersion", "--set", "k_par_points=10000000000"],
            ["scan-cavity", "--set", "omega_k_points=100000", "--set", "xi_points=100000"],
        ],
        ids=["k_par_points", "omega_k_and_xi_points"],
    )
    def test_a_run_beyond_memory_is_a_one_line_config_error(self, argv):
        # a child interpreter with a 2 GiB address space, so that the 74.5-GiB
        # arrays fail at once on any host
        script = (
            "import resource, sys\n"
            "from chiralpol import cli\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("config error: out of memory (")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "setting", ["omega_m=1e300", "xi=1e308", "k_z=1e300", "eta=1e308 xi=-1"]
    )
    def test_dispersion_overflow_is_one_line_without_warnings(self, setting):
        argv = ["scan-dispersion"] + [a for pair in setting.split() for a in ("--set", pair)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv)
        assert [str(w.message) for w in caught] == []
        assert code == 1 and out == ""
        assert err == "config error: numeric overflow in tavis_cummings.dispersion_scan\n"

    system_overflows = [
        (["scan-cavity", "--set", "mu=1e160,0,0", "--set", "roll_delta=1"], "mu"),
        (["scan-n", "--set", "roll_delta=101", "--set", "mu=1e300,0,0"], "mu"),
        (["scan-dispersion", "--set", "mu=-1e308,0,0", "--set", "roll_delta=4"], "mu"),
        (["scan-cavity", "--set", "xi_rotation=1e308,0,0,0,0,0,0,0,0"], "xi_rotation"),
        (["scan-n", "--set", "quadrupole=0,1e200,0,-1e200,0,0,0,0,0"], "quadrupole"),
        (["scan-n", "--set", "mu=1e300,0,0"], "mu"),
        (["scan-cavity", "--set", "mu=1e300,0,0"], "mu"),
        (["scan-dispersion", "--set", "mu=1e300,0,0"], "mu"),
        (["scan-n", "--set", "chi_m=1e200,0,0,0,0,0,0,0,0"], "chi_m"),
        (
            ["scan-cavity", "--set", "quadrupole=0,0,1e200,0,0,0,1e200,0,0", "--set", "z=3"],
            "quadrupole",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, key",
        system_overflows,
        ids=["_".join(a for a in argv if a != "--set") for argv, _ in system_overflows],
    )
    def test_system_check_overflow_is_one_line_without_warnings(self, argv, key):
        # the reference emitter's |mu|, U'U or Q - Q' overflows before any
        # scan runs, or a huge mu, Q or chi_m overflows only in a scan stage;
        # either way the rerun with the emitter keys put back names the key
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv)
        assert [str(w.message) for w in caught] == []
        assert code == 1 and out == ""
        assert err == f"config error: numeric overflow in {key}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-n", "--set", "n_max_exp=60", "--set", "selfpol=collective"],
            ["scan-n", "--set", "n_max_exp=60", "--set", "selfpol=local"],
            ["scan-cavity", "--set", "omega_k_points=3", "--set", "xi_points=3"],
            ["scan-dispersion", "--set", "k_par_points=3"],
        ],
        ids=["scan-n", "scan-n-local", "scan-cavity", "scan-dispersion"],
    )
    def test_extreme_scales_never_end_in_a_traceback(self, argv):
        # omega_m 1e-200 ... 1e20 and eta 1e-12 ... 1e160, four decades apart:
        # a row may be flagged unstable or the input refused, but never a crash
        settings = [f"omega_m=1e{k}" for k in range(-200, 21, 4)]
        settings += [f"eta=1e{k}" for k in range(-12, 161, 4)]
        for setting in settings:
            code, _, err = run_cli([*argv, "--set", setting])
            assert code in (0, 1), setting
            assert "Traceback" not in err


class TestParserCache:
    def test_calls_in_one_process_match_calls_made_alone(self):
        # the parser is built once per process; an --set list, a --seed or a
        # --strict flag of one call must not carry over into the next
        sequence = [
            ["scan-n", "--set", "n_max_exp=3", "--set", "xi=0.01"],
            ["scan-n", "--set", "n_max_exp=2"],
            ["oracle", "--set", "oracle_sets=1", "--set", "fock_cutoff=12", "--seed", "5"],
            ["oracle", "--set", "oracle_sets=1", "--set", "fock_cutoff=12"],
            ["scan-n", "--strict", "--set", "selfpol=local", "--set", "n_max_exp=16"],
            ["scan-n", "--set", "selfpol=local", "--set", "n_max_exp=16"],
            ["scan-cavity", "--seed", "3"],
            ["scan-cavity", "--set", "omega_k_points=2", "--set", "xi_points=2"],
        ]
        alone = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            alone.append(run_cli(argv))
        in_sequence = [run_cli(argv) for argv in sequence]
        assert [code for code, _, _ in alone] == [0, 0, 0, 0, 3, 0, 1, 0]
        assert in_sequence == alone


class TestUnstableRows:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            # N = 2^14 onward (the local model's critical N)
            (
                ["scan-n", "--set", "selfpol=local", "--set", "n_max_exp=60"],
                lambda row: row["n"] >= 2**14,
            ),
            # every chiral row; the exact factors keep the xi = 0 column stable
            (["scan-cavity", "--set", "eta=1e10"], lambda row: row["xi"] != 0.0),
            # the exact f1 itself underflows to 0, so xi = 0 is flagged too
            (["scan-cavity", "--set", "omega_m=1e-135"], lambda row: True),
        ],
        ids=["scan-n-local", "eta=1e10", "omega_m=1e-135"],
    )
    def test_flags_without_warnings(self, argv, expected):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        assert [str(w.message) for w in caught] == []
        header, *lines = [line for line in out.splitlines() if not line.startswith("#")]
        names = header.split(",")
        for line in lines:
            row = dict(zip(names, map(float, line.split(","))))
            assert row["unstable"] == float(expected(row)), line
            if row["unstable"]:
                values = [row[name] for name in names[:-1] if name not in ("n", "omega_k", "xi")]
                assert values == [0.0] * len(values)


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


SYSTEM_HEADER = """\
# handedness = 1
# eta = 0.001
# omega_m = 0.10000000000000001
# mu = 2,0,0
# quadrupole = 0,0,0,0,0,0,0,0,0
# chi_m = 0,0,0,0,0,0,0,0,0
# xi_rotation = 1,0,0,0,1,0,0,0,1
# roll_delta = 0
# z = 0
# k_z = 0.00072973525737569152
"""

CAVITY_HEADER = """\
# n_emitters = 100
# omega_k_min = 0.080000000000000016
# omega_k_max = 0.12
# omega_k_points = 41
# xi_min = -1
# xi_max = 1
# xi_points = {xi_points}
omega_k,xi,omega_k_bar,omega_m_tilde,omega_plus,omega_minus,photon_frac_plus,\
matter_frac_plus,photon_frac_minus,matter_frac_minus,e_vac,unstable
"""


class TestHeaders:
    # the echo is Python float formatting of parsed keys: no BLAS or libm digits
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["scan-cavity"],
                "# command = scan-cavity\n" + SYSTEM_HEADER + CAVITY_HEADER.format(xi_points=21),
            ),
            # a one-point grid echoes the configured xi_max, not the grid's end
            (
                ["scan-cavity", "--set", "xi_points=1"],
                "# command = scan-cavity\n" + SYSTEM_HEADER + CAVITY_HEADER.format(xi_points=1),
            ),
            (
                ["scan-n"],
                "# command = scan-n\n"
                + SYSTEM_HEADER
                + """\
# xi = 3.7119999999999997e-05
# omega_k = 0.10000000000000001
# n_max_exp = 20
# selfpol = collective
n,delta_omega_plus,delta_omega_minus,delta_e_vac,slope_delta_e_vac,unstable
""",
            ),
            (
                ["scan-dispersion"],
                "# command = scan-dispersion\n"
                + SYSTEM_HEADER
                + """\
# xi = 0.5
# n_emitters = 100
# k_par_min = 0
# k_par_max = 0.00072973525737569152
# k_par_points = 41
k_par,omega_mode,effective_coupling,polariton_upper,polariton_lower
""",
            ),
            (
                ["oracle", "--set", "oracle_sets=1", "--set", "fock_cutoff=12"],
                """\
# command = oracle
# oracle_sets = 1
# fock_cutoff = 12
# fock_tol = 1e-8
# tol = 1e-7
# check_convergence = 0
# seed = 20240
set_index,omega_k_bar,omega_m_tilde,coupling,xi_lambda,oracle_plus,oracle_minus,e0,\
analytic_plus,analytic_minus,dev_plus,dev_minus,e0_dev,ladder_residual,degenerate,\
ambiguous,converged,cutoff,certified
""",
            ),
        ],
        ids=["scan-cavity", "scan-cavity-xi_points=1", "scan-n", "scan-dispersion", "oracle"],
    )
    def test_metadata_and_column_names_are_pinned(self, argv, expected):
        code, out, _ = run_cli(argv)
        assert code == 0
        lines = out.splitlines(keepends=True)
        names = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert "".join(lines[: names + 1]) == expected


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

    @pytest.mark.parametrize(
        "key, value, omega_m",
        [("eta", "1e10", 0.1), ("omega_m", "1e-100", 1e-100)],
        ids=["eta=1e10", "omega_m=1e-100"],
    )
    def test_ultrastrong_achiral_column_is_exact(self, key, value, omega_m):
        # eta=1e10: omega_k_bar*omega_m_tilde ~ 1e10 while f1 ~ 1e-14, so a
        # stability factor formed as a difference is pure roundoff here;
        # omega_m=1e-100: f1*f2 underflows although each factor does not
        table = scan_cavity({**CAVITY_DEFAULTS, key: value})
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
            assert product == pytest.approx(record["omega_k_bar"] * omega_m, rel=1e-13)

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
        emitter = Emitter.collinear(0.1, [2.0, 0, 0], xi=xi)
        mode = CavityMode(1, 0.1, 0.001, 0.1 / SPEED_OF_LIGHT_AU, 0.0)
        stable = 0
        for n, d_up, d_low, d_evac, _, unstable in table.rows:
            if unstable:
                continue
            stable += 1
            expected = discrimination(emitter, mode, int(n), selfpol)
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
        names = header.split(",")
        converged, certified = (
            [float(row.split(",")[names.index(name)]) for row in rows]
            for name in ("converged", "certified")
        )
        assert len(converged) == 2
        if check == "1":
            assert all(value in (0.0, 1.0) for value in converged)
            assert converged == certified  # the residual bound is the check
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
