import dataclasses
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import LinAlgError

from chiralpol import fock_oracle
from chiralpol.couplings import DerivedCouplings
from chiralpol.fock_oracle import (
    FockConfig,
    _sector_band,
    fit_ladder,
    low_levels,
    oracle_check,
)
from chiralpol.hopfield import polariton_frequencies
from chiralpol.scans import (
    ORACLE_DEFAULTS,
    _max_gap_ratio,
    run_oracle_suite,
    sample_stable_couplings,
)
from reference_forms import build_fock_hamiltonian

SRC = Path(__file__).resolve().parents[1] / "src"


def couplings(w_photon=1.0, w_matter=1.0, g=0.1, xi=0.0, lam=1):
    return DerivedCouplings(
        omega_k_bar=w_photon,
        omega_m_tilde=w_matter,
        g_tilde=g,
        xi_tilde=xi,
        g_bar=g,
        xi_bar=xi,
        n_emitters=1,
        handedness=lam,
    )


def stable_random_couplings(rng):
    while True:
        c = couplings(
            w_photon=rng.uniform(0.5, 2.0),
            w_matter=rng.uniform(0.5, 2.0),
            g=rng.uniform(0.0, 0.25),
            xi=rng.uniform(-1.0, 1.0),
        )
        try:
            upper, lower = polariton_frequencies(c)
        except Exception:
            continue
        if upper < 8 * lower:
            return c


def gauged_sector(c: DerivedCouplings, cutoff: int, parity: int) -> np.ndarray:
    """The parity sector, ordered by n, then m, of the complex Hamiltonian on
    the full basis after the photon phase a -> i a."""
    dim = cutoff + 1
    n_photon, n_matter = np.divmod(np.arange(dim * dim), dim)
    gauge = np.diag(1j**n_photon)
    gauged = gauge.conj().T @ build_fock_hamiltonian(c, FockConfig(cutoff)) @ gauge
    states = np.where((n_photon + n_matter) % 2 == parity)[0]  # row-major: by n, then m
    return gauged[np.ix_(states, states)]


def unpacked(band: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix whose lower band storage is `band`."""
    size = band.shape[1]
    lower = sum(np.diag(band[d, : size - d], -d) for d in range(band.shape[0]))
    return np.tril(lower) + np.tril(lower, -1).T


class TestHamiltonianBuild:
    def test_free_hamiltonian_is_diagonal(self):
        c = couplings(w_photon=0.9, w_matter=1.7, g=0.0)
        h = build_fock_hamiltonian(c, FockConfig(fock_cutoff=4))
        assert_allclose(h, np.diag(np.diag(h)))
        dim = 5
        n_photon, n_matter = np.divmod(np.arange(dim * dim), dim)
        expected = 0.9 * (n_photon + 0.5) + 1.7 * (n_matter + 0.5)
        assert_allclose(np.diag(h).real, expected)

    def test_dimension_and_basis_order(self):
        h = build_fock_hamiltonian(couplings(), FockConfig(fock_cutoff=6))
        assert h.shape == (49, 49)

    @given(
        w1=st.floats(0.5, 2.0),
        w2=st.floats(0.5, 2.0),
        g=st.floats(0.0, 0.3),
        xi=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_hermiticity(self, w1, w2, g, xi):
        h = build_fock_hamiltonian(couplings(w1, w2, g, xi), FockConfig(fock_cutoff=5))
        assert np.linalg.norm(h - h.conj().T) == 0.0

    def test_cutoff_one_enumerated_by_hand(self):
        # basis |n_a n_B>: 00, 01, 10, 11; couplings g(1 +- xi lam) on the
        # counter-rotating (00<->11) and rotating (01<->10) pairs
        g, xi = 0.07, 0.4
        c = couplings(w_photon=1.1, w_matter=0.9, g=g, xi=xi)
        h = build_fock_hamiltonian(c, FockConfig(fock_cutoff=4))[:4, :4]
        # rebuild the 4x4 block by hand (cutoff=4 matrix restricted to
        # occupations {0,1} x {0,1} has the same entries as cutoff=1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.5 * 1.1 + 0.5 * 0.9
        expected[1, 1] = 0.5 * 1.1 + 1.5 * 0.9
        expected[2, 2] = 1.5 * 1.1 + 0.5 * 0.9
        expected[3, 3] = 1.5 * 1.1 + 1.5 * 0.9
        expected[0, 3] = -1j * g * (1 - xi)
        expected[3, 0] = 1j * g * (1 - xi)
        expected[1, 2] = -1j * g * (1 + xi)
        expected[2, 1] = 1j * g * (1 + xi)
        hand_indices = [0, 1, 5, 6]  # 00, 01, 10, 11 at cutoff 4
        assert_allclose(h[np.ix_([0, 1], [0, 1])], expected[:2, :2])
        full = build_fock_hamiltonian(c, FockConfig(fock_cutoff=4))
        assert_allclose(
            full[np.ix_(hand_indices, hand_indices)], expected, atol=1e-15
        )

    # xi = -1 has no swap term, xi = +1 no pair term; the certificate applies
    # the band one box up, so an odd cutoff is checked as well as an even one
    @pytest.mark.parametrize("xi", [-1.0, -0.6, 1.0])
    @pytest.mark.parametrize("cutoff", [6, 7])
    def test_sector_bands_are_the_gauged_complex_hamiltonian(self, cutoff, xi):
        c = couplings(w_photon=1.2, w_matter=0.8, g=0.11, xi=xi)
        for parity in (0, 1):
            sector = gauged_sector(c, cutoff, parity)
            assert np.max(np.abs(sector.imag)) < 1e-15
            assert_allclose(unpacked(_sector_band(c, cutoff, parity)), sector.real, atol=1e-15)

    def test_bands_that_share_a_cached_sector_are_independent(self):
        # the structure of each (cutoff, parity) is cached and read-only, and
        # every band is a fresh array: writing into one changes neither
        # another set's band nor a later build of the same one
        sets = [
            couplings(w_photon=1.2, w_matter=0.8, g=0.11, xi=-0.6),
            couplings(w_photon=0.7, w_matter=1.3, g=0.05, xi=0.4),
        ]
        for parity in (0, 1):
            first, second = (_sector_band(c, 7, parity) for c in sets)
            first[:] = np.nan
            for c, band in zip(sets, (_sector_band(sets[0], 7, parity), second)):
                assert_allclose(unpacked(band), gauged_sector(c, 7, parity).real, atol=1e-15)
            sector = fock_oracle._sector(7, parity)
            cached = [sector.n, sector.m, sector.inner, *(a for link in sector.links for a in link)]
            assert not any(array.flags.writeable for array in cached)

    @pytest.mark.parametrize("cutoff", [4, 5, 12, 40, 80])
    def test_sector_band_half_width_is_half_the_cutoff(self, cutoff):
        # n-major order: couplings reach only the adjacent n-block
        c = couplings(g=0.2, xi=0.5)
        for parity in (0, 1):
            assert _sector_band(c, cutoff, parity).shape[0] <= (cutoff + 1) // 2 + 2

    def test_parity_blocks_do_not_mix(self):
        c = couplings(g=0.2, xi=0.5)
        h = build_fock_hamiltonian(c, FockConfig(fock_cutoff=5))
        total = np.arange(36) // 6 + np.arange(36) % 6
        even, odd = np.where(total % 2 == 0)[0], np.where(total % 2 == 1)[0]
        assert np.linalg.norm(h[np.ix_(even, odd)]) == 0.0


class TestSpectrum:
    def test_free_gaps_and_ground_energy(self):
        c = couplings(w_photon=0.8, w_matter=1.9, g=0.0)
        levels = low_levels(c, cutoff=8, count=6)
        assert levels[0] == pytest.approx((0.8 + 1.9) / 2, rel=1e-14)
        assert levels[1] - levels[0] == pytest.approx(0.8, rel=1e-13)
        fit = fit_ladder(levels, tol=1e-10)
        assert fit.omega_minus == pytest.approx(0.8, rel=1e-13)
        assert fit.omega_plus == pytest.approx(1.9, rel=1e-13)

    def test_clean_chiral_resonance_to_1e8(self):
        c = couplings(g=0.1, xi=1.0)
        report = oracle_check(c, FockConfig(fock_cutoff=40))
        assert report.omega_plus == pytest.approx(1.2, abs=1e-8)
        assert report.omega_minus == pytest.approx(0.8, abs=1e-8)
        assert report.deviation_plus < 1e-8
        assert report.deviation_minus < 1e-8

    def test_achiral_resonance_matches_closed_form(self):
        c = couplings(g=0.1, xi=0.0)
        report = oracle_check(c, FockConfig(fock_cutoff=40))
        assert report.omega_plus == pytest.approx(np.sqrt(1.2), rel=1e-8)
        assert report.omega_minus == pytest.approx(np.sqrt(0.8), rel=1e-8)

    def test_ladder_residual_within_ten_tol(self):
        config = FockConfig(fock_cutoff=30, fock_tol=1e-8)
        rng = np.random.default_rng(42)
        for _ in range(5):
            c = stable_random_couplings(rng)
            levels = low_levels(c, config.fock_cutoff, count=7)
            fit = fit_ladder(levels, config.fock_tol)
            scale = abs(levels[0]) + fit.omega_minus
            assert fit.residual <= 10 * config.fock_tol * scale

    def test_ground_state_chirality_difference_matches_analytic(self):
        # enantio-discriminating part of E0: compare xi -> -xi differences
        base = couplings(g=0.07, xi=0.35)
        flipped = dataclasses.replace(base, xi_tilde=-0.35, xi_bar=-0.35)
        e0_base = low_levels(base, 30, count=1)[0]
        e0_flipped = low_levels(flipped, 30, count=1)[0]
        up_b, low_b = polariton_frequencies(base)
        up_f, low_f = polariton_frequencies(flipped)
        analytic = 0.5 * (up_b + low_b) - 0.5 * (up_f + low_f)
        assert e0_base - e0_flipped == pytest.approx(analytic, rel=1e-9)

    def test_cutoff_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            c = stable_random_couplings(rng)
            upper, lower = polariton_frequencies(c)

            def deviation(cutoff):
                fit = fit_ladder(low_levels(c, cutoff, count=10), 1e-10)
                return max(
                    abs(fit.omega_plus - upper) / upper,
                    abs(fit.omega_minus - lower) / lower,
                )

            assert deviation(24) <= deviation(12) + 1e-11

    def test_handedness_symmetry_of_spectrum(self):
        c = couplings(g=0.15, xi=0.6, lam=1)
        mirrored = dataclasses.replace(c, xi_tilde=-0.6, xi_bar=-0.6, handedness=-1)
        assert_allclose(
            low_levels(c, 12, count=20), low_levels(mirrored, 12, count=20), atol=1e-13
        )

    def test_degenerate_regime_reports_single_gap(self):
        c = couplings(g=0.1, xi=-1.0)
        levels = low_levels(c, 30, count=10)
        fit = fit_ladder(levels, tol=1e-8)
        assert fit.degenerate
        assert fit.omega_plus == fit.omega_minus
        assert fit.omega_minus == pytest.approx(np.sqrt(0.96), rel=1e-8)

    def test_convergence_flag_on_clean_case(self):
        c = couplings(g=0.1, xi=0.3)
        report = oracle_check(c, FockConfig(fock_cutoff=12))
        assert report.certified

    def test_commensurate_ladder_identified_by_multiplicity(self):
        # synthetic spectrum with omega_plus exactly 2*omega_minus
        om, op = 0.5, 1.0
        lattice = sorted(
            n * om + m * op for n in range(8) for m in range(4) if n + m > 0
        )
        levels = [3.0] + [3.0 + v for v in lattice[:10]]
        fit = fit_ladder(levels, tol=1e-10)
        assert fit.omega_minus == pytest.approx(om)
        assert fit.omega_plus == pytest.approx(op)
        assert fit.residual < 1e-9

    def test_low_levels_match_complex_reference(self):
        rng = np.random.default_rng(11)
        for cutoff in (4, 6, 12):
            for _ in range(5):
                c = stable_random_couplings(rng)
                h = build_fock_hamiltonian(c, FockConfig(cutoff))
                levels = low_levels(c, cutoff, count=48)
                assert levels.size == min(48, (cutoff + 1) ** 2)  # all 25 at cutoff 4
                assert_allclose(
                    levels, np.linalg.eigvalsh(h)[: levels.size], atol=1e-12
                )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="cutoff"):
            FockConfig(fock_cutoff=2)
        with pytest.raises(ValueError, match="cutoff"):
            FockConfig(fock_cutoff=101)
        with pytest.raises(ValueError, match="tol"):
            FockConfig(fock_tol=0.0)


class TestSoftModeSuite:
    def test_gap_ratios_beyond_the_default_sampler(self):
        # gap ratio in (12, 20]: the sets the oracle suite's sampler rejects
        # at cutoff 40, resolved at cutoff 80
        rng = np.random.default_rng(2209)
        checked = 0
        while checked < 4:
            c = sample_stable_couplings(rng, max_gap_ratio=20.0)
            upper, lower = polariton_frequencies(c)
            if upper <= 12.0 * lower:
                continue
            report = oracle_check(c, FockConfig(fock_cutoff=80))
            assert not report.ambiguous, upper / lower
            worst = max(report.deviation_plus, report.deviation_minus, report.e0_deviation)
            assert worst <= 1e-7, (upper / lower, worst)
            checked += 1


def default_sets(count: int) -> list:
    rng = np.random.default_rng(int(ORACLE_DEFAULTS["seed"]))
    ratio = _max_gap_ratio(int(ORACLE_DEFAULTS["fock_cutoff"]))
    return [sample_stable_couplings(rng, ratio) for _ in range(count)]


class TestCertificate:
    # the residual bound that accepts a box: the cutoff steps, the accepted
    # box against a dense recomputation, and the certified levels against the
    # cutoff-40 ones

    def test_the_cutoff_steps_grow_by_at_most_a_quarter_up_to_the_ceiling(self):
        assert fock_oracle._cutoff_steps(40) == [8, 12, 16, 20, 24, 28, 32, 40]
        assert fock_oracle._cutoff_steps(80)[6:] == [32, 38, 46, 55, 67, 80]
        for ceiling in range(4, fock_oracle.MAX_CUTOFF + 1):
            steps = fock_oracle._cutoff_steps(ceiling)
            assert steps[-1] == ceiling and steps == sorted(set(steps))
            above = [32] + [step for step in steps if step > 32]
            assert all(high <= 1.25 * low for low, high in zip(above, above[1:])), ceiling

    def test_the_accepted_box_is_the_first_that_certifies_every_level_read(self):
        # dense eigenvectors and the next box's dense matrix give each level's
        # residual independently of the inverse iteration and of the band matvec
        tol = 1e-8
        sets = default_sets(12)
        steps = fock_oracle._cutoff_steps(40)
        reports = oracle_check(sets, FockConfig(40, tol))
        for c, report in zip(sets, reports):
            index = steps.index(report.cutoff)
            checked = [(report.cutoff, report.certified)]
            checked += [(steps[index - 1], False)] if index else []
            for cutoff, certified in checked:
                spectra = [
                    np.linalg.eigh(unpacked(_sector_band(c, cutoff, parity)))
                    for parity in (0, 1)
                ]
                levels = np.sort(np.concatenate([e for e, _ in spectra]))[:48]
                highest = levels[fit_ladder(levels, tol).levels_read - 1]
                bound = 0.0
                for parity, (energies, vectors) in enumerate(spectra):
                    sector = fock_oracle._sector(cutoff + 1, parity)
                    n, m = sector.n, sector.m
                    read = energies <= highest
                    padded = np.zeros((n.size, np.count_nonzero(read)))
                    padded[(n <= cutoff) & (m <= cutoff)] = vectors[:, read]
                    next_box = unpacked(_sector_band(c, cutoff + 1, parity))
                    residual = next_box @ padded - padded * energies[read]
                    bound = max(bound, np.linalg.norm(residual, 2))
                assert (bound <= 0.5 * tol * (levels[1] - levels[0])) == certified, cutoff

    def test_a_step_bounds_the_odd_sector_only_when_the_even_one_passed(self, monkeypatch):
        # the 20-set default suite at the ceiling 40, in process: each step
        # bounds the even sector, which holds E0, first, and stops at the
        # first sector above its threshold
        tol = 1e-8
        bound = fock_oracle._residual_bound
        steps = {}

        def recorded(c, cutoff, parity, band, levels):
            value = bound(c, cutoff, parity, band, levels)
            steps.setdefault((id(c), cutoff), (c, []))[1].append((parity, value))
            return value

        monkeypatch.setattr(fock_oracle, "_residual_bound", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        oracle_check(default_sets(20), FockConfig(40, tol))
        calls = 0
        for (_, cutoff), (c, bounded) in steps.items():
            e0, e1 = low_levels(c, cutoff, 2)
            threshold = 0.5 * tol * (e1 - e0)
            parities = [parity for parity, _ in bounded]
            assert parities == ([0, 1] if bounded[0][1] <= threshold else [0]), cutoff
            calls += len(bounded)
        assert calls < 2 * len(steps)

    def test_a_singular_shifted_band_is_a_linalg_error(self, monkeypatch):
        c = couplings(g=0.1, xi=0.3)
        band = _sector_band(c, 8, 0)
        levels = fock_oracle._lowest(band, 3)
        factor = scipy.linalg.lapack.dgbtrf

        def singular(*args, **kwargs):
            lu, pivots, _ = factor(*args, **kwargs)
            return lu, pivots, 1  # as when U[0, 0] is exactly zero

        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", singular)
        with pytest.raises(LinAlgError, match="singular"):
            fock_oracle._residual_bound(c, 8, 0, band, levels)

    def test_certified_levels_lie_within_their_bound_of_the_cutoff_40_levels(self):
        tol = 1e-8
        sets = default_sets(200)
        counts = [fock_oracle._sized_count(*polariton_frequencies(c), tol) for c in sets]
        tasks = [(c, 40, k, tol) for c, k in zip(sets, counts)]
        searched = fock_oracle._mapped(fock_oracle._certified_levels, tasks)
        at_40 = fock_oracle._mapped(
            low_levels, [(c, 40, levels.size) for c, (_, _, levels, _) in zip(sets, searched)]
        )
        certified = 0
        for c, (cutoff, ok, levels, fit), reference in zip(sets, searched, at_40):
            assert repr(fit) == repr(fit_ladder(levels, tol))  # the fit of these levels
            fit_40 = fit_ladder(reference, tol)
            assert (fit.degenerate, fit.ambiguous) == (fit_40.degenerate, fit_40.ambiguous)
            if not ok:
                continue
            certified += 1
            read = levels[: fit.levels_read]
            bands = [_sector_band(c, cutoff, parity) for parity in (0, 1)]
            sectors = [fock_oracle._lowest(band, levels.size) for band in bands]
            bound = max(
                fock_oracle._residual_bound(c, cutoff, parity, band, found[found <= read[-1]])
                for parity, (band, found) in enumerate(zip(bands, sectors))
            )
            assert np.all(np.abs(read - reference[: read.size]) <= bound), cutoff
        assert certified >= 190


@pytest.fixture
def asked(monkeypatch):
    """The `count` of each band solve, in call order; every solve runs in
    process, where the calls are seen."""
    counts = []
    lowest = fock_oracle._lowest

    def counted(band, count):
        counts.append(count)
        return lowest(band, count)

    monkeypatch.setattr(fock_oracle, "_lowest", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    return counts


class TestSizedSolves:
    # oracle_check asks each set for the levels its fit reads on the analytic
    # ladder, and solves a set again in full when its fit read every level

    @pytest.mark.parametrize("ratio", [1.0, 1.7, 2.0, 5.3, 11.9, 19.5])
    def test_the_sized_count_is_the_analytic_fit_window_plus_two(self, ratio):
        om = 0.4
        ladder = [0.0] + sorted(
            n * om + m * ratio * om for n in range(60) for m in range(3) if n + m > 0
        )[:60]
        fit = fit_ladder(ladder, tol=1e-8)
        assert fit.levels_read < len(ladder)
        assert fock_oracle._sized_count(ratio * om, om, 1e-8) == fit.levels_read + 2

    def test_a_fit_without_a_stiff_gap_reads_every_level(self):
        fit = fit_ladder([0.5 * k for k in range(9)], tol=1e-8)
        assert fit.ambiguous and fit.levels_read == 9

    @pytest.mark.parametrize(
        "plus, minus", [(41.0, 1.0), (1e300, 1.0), (1.0, np.nan), (1.0, 0.0)]
    )
    def test_a_stiff_gap_past_the_window_is_a_full_solve_without_a_ladder(
        self, plus, minus, monkeypatch
    ):
        # at Omega+ >= 41 Omega- the onset lies past FULL_COUNT levels; the
        # analytic ladder would be long, or endless where Omega- is 0 or NaN
        def no_ladder(*args, **kwargs):
            raise AssertionError("built an analytic ladder")

        monkeypatch.setattr(fock_oracle, "_lattice", no_ladder)
        assert fock_oracle._sized_count(plus, minus, 1e-8) == fock_oracle.FULL_COUNT

    def test_a_near_commensurate_runner_up_makes_the_fit_ambiguous(self):
        # Omega+ sits 1.5 match tolerances below the soft rung 5 Omega-, and
        # one level is off by 0.8 of one: the best candidate fits within the
        # tolerance, but 5 Omega- fits within twice its residual
        tol, e0 = 1e-8, 0.7
        match_tol = 10 * tol * (e0 + 1.0)
        plus = 5.0 - 1.5 * match_tol
        levels = e0 + np.array([0.0, 1, 2, 3, 4, plus, 5, plus + 1, 6, plus + 2, 7])
        levels[9] += 0.8 * match_tol
        fit = fit_ladder(levels, tol)
        assert fit.omega_plus == plus
        assert fit.residual <= match_tol
        assert fit.ambiguous

    def test_an_undersized_solve_falls_back_to_the_full_report(self, asked, monkeypatch):
        rng = np.random.default_rng(1741)
        sets = [sample_stable_couplings(rng, _max_gap_ratio(16)) for _ in range(20)]
        config = FockConfig(fock_cutoff=16)
        full = fock_oracle.FULL_COUNT

        def reports(count):
            if count is not None:
                monkeypatch.setattr(fock_oracle, "_sized_count", lambda *args: count)
            asked.clear()
            return oracle_check(sets, config)

        sized = reports(None)
        undersized = reports(4)
        # both sectors of every search step are solved again in full
        assert asked == [4, 4, full, full] * (len(asked) // 4)
        expected_reports = reports(full)
        for checked in (sized, undersized):
            for report, expected in zip(checked, expected_reports):
                for flag in ("degenerate", "ambiguous", "cutoff", "certified"):
                    assert getattr(report, flag) == getattr(expected, flag)
                for name in ("omega_plus", "omega_minus", "e0"):
                    assert getattr(report, name) == pytest.approx(
                        getattr(expected, name), rel=1e-14, abs=0.0
                    )

    def test_the_convergence_check_solves_no_box_above_the_ceiling(self, asked, monkeypatch):
        # the certificate is the convergence check: no band wider than a
        # sector at fock_cutoff is solved, the residual bound builds bands one
        # box up and no higher, and at the ceiling 12 some sets are certified
        # and some are not
        built, solved = [], []
        band, lowest = fock_oracle._sector_band, fock_oracle._lowest

        def recorded_band(c, cutoff, parity):
            built.append(cutoff)
            return band(c, cutoff, parity)

        def recorded_solve(band, count):
            solved.append(band.shape[1])
            return lowest(band, count)

        monkeypatch.setattr(fock_oracle, "_sector_band", recorded_band)
        monkeypatch.setattr(fock_oracle, "_lowest", recorded_solve)
        reports = oracle_check(default_sets(8), FockConfig(fock_cutoff=12))
        assert max(solved) == max(fock_oracle._sector(12, p).n.size for p in (0, 1))
        assert max(built) == 13
        assert {r.certified for r in reports} == {True, False}

    def test_the_default_suite_asks_for_few_levels_once_per_step(self, asked):
        run_oracle_suite({**ORACLE_DEFAULTS, "oracle_sets": "20", "fock_cutoff": "40"})
        assert fock_oracle.FULL_COUNT not in asked  # no set needed a second solve
        assert np.mean(asked) <= 16

    def test_a_match_tolerance_of_half_the_first_gap_identifies_no_ladder(self, asked):
        # at fock_tol = 1 every gap matches its neighbours within the tolerance;
        # the fit compares no level past E1, so the search certifies those two
        # at the first step instead of running to the ceiling
        table = run_oracle_suite(
            {**ORACLE_DEFAULTS, "fock_tol": "1", "fock_cutoff": "12", "oracle_sets": "2"}
        )
        rows = [dict(zip(table.column_names, row)) for row in table.rows]
        assert rows[1]["ambiguous"] == 1 and rows[1]["degenerate"] == 0
        assert np.isnan(rows[1]["ladder_residual"])
        assert [(row["cutoff"], row["certified"]) for row in rows] == [(8, 1), (8, 1)]
        assert fock_oracle.FULL_COUNT not in asked


@pytest.fixture
def pools(monkeypatch):
    """cpus(n) makes the oracle see n CPUs; the list holds the number of
    children each forked call starts."""
    started = []
    children = []
    fork, forked_map = os.fork, fock_oracle._forked_map

    def counted_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    def counted_map(*args):
        before = len(children)
        try:
            return forked_map(*args)
        finally:
            started.append(len(children) - before)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(fock_oracle, "_forked_map", counted_map)

    def cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        return started

    return cpus


def assert_no_child_left():
    # waitpid(-1) raises only when this process has no child at all, running
    # or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerPool:
    # oracle_check forks its cutoff searches, one task per set, from
    # SEARCH_MIN_SETS sets on; at the ceiling 4 the sectors hold 13 and 12
    # states, fewer than the 48 levels, and nine sets deal out unevenly
    @pytest.mark.parametrize("n_sets, cutoff", [(fock_oracle.SEARCH_MIN_SETS, 40), (9, 4)])
    def test_forked_reports_are_the_in_process_reports_bitwise(self, pools, n_sets, cutoff):
        rng = np.random.default_rng(13)
        sets = [sample_stable_couplings(rng) for _ in range(n_sets)]
        config = FockConfig(fock_cutoff=cutoff)
        started = pools(1)
        alone = oracle_check(sets, config)
        assert started == []
        pools(2)
        forked = oracle_check(sets, config)
        assert started == [2]
        assert len(forked) == n_sets
        assert repr(forked) == repr(alone)  # repr gives every float exactly

    def test_a_pool_has_no_more_workers_than_tasks(self, pools):
        started = pools(8)
        oracle_check([couplings(g=0.1, xi=0.3)] * fock_oracle.SEARCH_MIN_SETS)
        assert started == [fock_oracle.SEARCH_MIN_SETS]  # one search per set

    def test_small_calls_stay_in_process(self, pools):
        # a search takes a few ms, forking ~7 ms on 2 vCPUs: calls with fewer
        # sets than SEARCH_MIN_SETS stay in process, at any ceiling
        started = pools(2)
        c = couplings(g=0.1, xi=0.3)
        oracle_check(c)
        oracle_check([c] * (fock_oracle.SEARCH_MIN_SETS - 1))
        assert started == []
        oracle_check([c] * fock_oracle.SEARCH_MIN_SETS)
        assert started == [2]

    def test_batch_equals_its_sets_one_by_one(self):
        rng = np.random.default_rng(5)
        sets = [sample_stable_couplings(rng) for _ in range(4)]
        config = FockConfig(fock_cutoff=12)
        reports = oracle_check(sets, config)
        assert reports == [oracle_check(c, config) for c in sets]

    def test_no_worker_outlives_an_oracle_suite(self, pools):
        # the fewest sets whose cutoff searches oracle_check forks
        started = pools(2)
        n_sets = fock_oracle.SEARCH_MIN_SETS
        table = run_oracle_suite(
            {**ORACLE_DEFAULTS, "oracle_sets": str(n_sets), "fock_cutoff": "24"}
        )
        assert len(table.rows) == n_sets
        assert started == [2]
        assert_no_child_left()

    def test_worker_error_reaches_the_caller_and_no_worker_outlives_it(
        self, pools, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise LinAlgError("band solver failed")

        monkeypatch.setattr(scipy.linalg, "eig_banded", failing)
        started = pools(2)
        rng = np.random.default_rng(3)
        sets = [sample_stable_couplings(rng) for _ in range(fock_oracle.SEARCH_MIN_SETS)]
        with pytest.raises(LinAlgError, match="band solver failed"):
            oracle_check(sets, FockConfig(fock_cutoff=24))
        assert started == [2]
        assert_no_child_left()

    def test_scipy_linalg_is_loaded_before_the_pool_forks(self):
        # a fresh interpreter, since this one loaded scipy.linalg long ago:
        # importing the oracle leaves it unloaded, and a forked call loads it
        # in the parent before the children start, so no child imports it
        script = """
import os, sys
from chiralpol import fock_oracle
from chiralpol.couplings import DerivedCouplings

loaded = []
fork = os.fork

def recorded_fork():
    loaded.append("scipy.linalg" in sys.modules)
    return fork()

os.fork = recorded_fork
os.sched_getaffinity = lambda pid: {0, 1}
c = DerivedCouplings(1.0, 1.0, 0.1, 0.3, 0.1, 0.3, n_emitters=1, handedness=1)
assert "scipy.linalg" not in sys.modules
fock_oracle.oracle_check([c] * fock_oracle.SEARCH_MIN_SETS)
assert loaded and all(loaded), loaded
"""
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr


# a fresh interpreter that sees two CPUs, with SEARCH_MIN_SETS distinct sets at
# the default ceiling 40: enough that oracle_check forks their searches
FORKING = """
import gc, os, signal, sys
from chiralpol import fock_oracle
from chiralpol.couplings import DerivedCouplings

os.sched_getaffinity = lambda pid: {0, 1}
sets = [
    DerivedCouplings(1.0, 1.0, 0.1, 0.3, 0.1, 0.3, n_emitters=1, handedness=1)
    for _ in range(fock_oracle.SEARCH_MIN_SETS)
]
parent = os.getpid()
search = fock_oracle._certified_levels

def killed_in_a_child(c, ceiling, count, tol):
    # the first child dies at its first set; the other runs to its end
    if os.getpid() != parent and c is sets[0]:
        os.kill(os.getpid(), signal.SIGKILL)
    return search(c, ceiling, count, tol)

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def run_forking(script: str, *options: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *options, "-c", FORKING + script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestForkedMap:
    def test_a_killed_child_is_one_clear_error(self):
        result = run_forking(
            """
fock_oracle._certified_levels = killed_in_a_child
try:
    fock_oracle.oracle_check(sets)
except ChildProcessError as error:
    print(error)
print(no_child_left())
"""
        )
        assert result.returncode == 0, result.stderr
        message, left = result.stdout.splitlines()
        assert re.fullmatch(r"oracle worker \d+ left no readable result", message)
        assert left == "True"

    def test_a_failed_read_kills_and_reaps_every_child(self, pools, monkeypatch):
        # the children would sleep for a minute; only killing them ends the
        # call sooner
        parent = os.getpid()

        def sleeping_in_a_child(*args):
            if os.getpid() != parent:
                time.sleep(60)

        def failing_load(pipe):
            raise OSError("read failed")

        monkeypatch.setattr(fock_oracle, "_certified_levels", sleeping_in_a_child)
        monkeypatch.setattr(fock_oracle.pickle, "load", failing_load)
        started = pools(2)
        begin = time.perf_counter()
        with pytest.raises(OSError, match="read failed"):
            oracle_check([couplings(g=0.1, xi=0.3)] * fock_oracle.SEARCH_MIN_SETS)
        assert time.perf_counter() - begin < 30
        assert started == [2]
        assert_no_child_left()

    def test_no_file_descriptor_or_resource_leaks(self):
        result = run_forking(
            """
def open_fds():
    return len(os.listdir("/proc/self/fd"))

def failing(c, ceiling, count, tol):
    raise ValueError("search failed")

counts = [open_fds()]
fock_oracle.oracle_check(sets)
counts.append(open_fds())
for searcher in (killed_in_a_child, failing):
    fock_oracle._certified_levels = searcher
    try:
        fock_oracle.oracle_check(sets)
    except (ChildProcessError, ValueError) as error:
        print(type(error).__name__)
    counts.append(open_fds())
gc.collect()
print(*counts)
print(no_child_left())
""",
            "-W",
            "error::ResourceWarning",
        )
        assert result.returncode == 0, result.stderr
        assert "ResourceWarning" not in result.stderr
        killed, failed, counts, left = result.stdout.splitlines()
        assert (killed, failed) == ("ChildProcessError", "ValueError")
        assert len(set(counts.split())) == 1, counts
        assert left == "True"

    def test_unflushed_output_is_written_once(self):
        result = run_forking(
            """
sys.stdout.write("written before the fork\\n")
fock_oracle.oracle_check(sets)
"""
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "written before the fork\n"


class TestOnDemandDealing:
    # _forked_map called directly: a free child takes the next task index
    # from one shared pipe, and the results come back in task order

    def test_a_long_task_holds_up_only_its_own_child(self):
        def timed(index):
            if index == 0:
                time.sleep(1.0)
            return index, os.getpid()

        results = fock_oracle._forked_map(timed, [(index,) for index in range(40)], 2)
        assert [index for index, _ in results] == list(range(40))
        slow = results[0][1]
        others = {pid for _, pid in results[1:]}
        assert len(others) == 1 and slow not in others
        assert_no_child_left()

    def test_the_lowest_failing_index_reaches_the_caller(self):
        # task 6 fails first in time, while task 3 sleeps
        def failing(index):
            if index == 3:
                time.sleep(0.5)
            if index in (3, 6):
                raise ValueError(f"task {index} failed")
            return index

        with pytest.raises(ValueError, match="task 3 failed"):
            fock_oracle._forked_map(failing, [(index,) for index in range(10)], 2)
        assert_no_child_left()

    def test_more_indices_than_a_pipe_holds(self):
        # 20 000 indices are 80 000 bytes, more than a 64 KiB pipe holds: the
        # parent's write waits for the children. When every child stops
        # first, the write fails, and the error the children reported, or
        # the death of the first, is what the caller sees. A fresh
        # interpreter, so that a deadlock ends in the timeout.
        result = run_forking(
            """
count = 20_000
print(fock_oracle._forked_map(lambda index: -index, [(i,) for i in range(count)], 2)
      == [-i for i in range(count)])

def failing(index):
    raise ValueError(f"task {index} failed")

def killed(index):
    os.kill(os.getpid(), signal.SIGKILL)

for func in (failing, killed):
    try:
        fock_oracle._forked_map(func, [(i,) for i in range(count)], 2)
    except (ValueError, ChildProcessError) as error:
        print(type(error).__name__, error)
print(no_child_left())
"""
        )
        assert result.returncode == 0, result.stderr
        in_order, failed, killed, left = result.stdout.splitlines()
        assert in_order == "True"
        assert failed == "ValueError task 0 failed"
        assert re.fullmatch(r"ChildProcessError oracle worker \d+ left no readable result", killed)
        assert left == "True"
