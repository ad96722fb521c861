"""Independent brute-force validator: exact diagonalization of the two-mode
chiral Hopfield Hamiltonian in a truncated Fock basis.

The Hamiltonian only involves the two collective modes (the dark states are
already eliminated); the basis keeps every |n, m> with n, m <= cutoff. The
coupling changes both occupations by one, so each parity sector of n + m,
ordered by n, then m, is a band of half-width about cutoff/2 in a real gauge,
and LAPACK's band solver gives its lowest levels (two 841-dimensional sectors
at the default cutoff 40). The tests hold the faithful complex Hermitian
matrix on the full basis and check the sectors against it.

oracle_check sizes each set's solve from the set's analytic ladder: it asks
for the levels the ladder fit would read on that ladder, plus two, and then
checks that the fit's window really closed inside the levels solved. A set
whose window ran to the last one is solved again at FULL_COUNT levels, so
every report is the one a FULL_COUNT solve gives, up to eigenvalue ulps.

low_levels and oracle_check take one parameter set or a sequence of them.
The sector solves of a call are independent and hold the GIL, so a call
large enough to repay the fork splits them into one contiguous chunk per
CPU and forks one child per chunk, which sends its levels back over a pipe
(`_forked_map`); ladder fits and reports stay in the calling process.
A report is a plain record: the oracle CSV and its columns belong to
`scans.run_oracle_suite`.

LAPACK is loaded with `scipy.linalg`, which this module reaches as an
attribute of `scipy`: SciPy imports the submodule at the first access, which
is the first sector solve, or the line just before the children fork.
Importing this module, and with it the CLI, does not import `scipy.linalg`;
nor does it import `multiprocessing`: the fork map needs only `os`.
"""

import os
import pickle
import signal
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy

from . import hopfield
from .couplings import DerivedCouplings


MAX_CUTOFF = 100  # the convergence re-solve at 200 keeps ~16 MB of band
# A call whose sectors hold fewer states than this between them solves in
# process: below it forking the children (~7 ms on 2 vCPUs) costs more than
# the solves it spreads. Measured break-even with the sized solves of
# oracle_check: ~1100 states for one set, ~1300 for two, ~1850 for three,
# ~2200 for five and ~3000 for twenty; one set at the default cutoff 40 holds
# 1681 and is forked, where it takes ~0.77 of the in-process time.
POOL_MIN_STATES = 1600
FULL_COUNT = 48  # levels of an unsized solve, and the most a sized one asks for
RUNGS_PAST_ONSET = 5  # gaps the ladder fit compares past the stiff gap's onset


@dataclass(frozen=True)
class FockConfig:
    """fock_cutoff: max occupation per mode; fock_tol: relative acceptance
    tolerance on the polariton frequencies. The names are the oracle's config
    keys, so an error names the key to change."""

    fock_cutoff: int = 40
    fock_tol: float = 1e-8

    def __post_init__(self):
        if self.fock_cutoff < 4:
            raise ValueError(f"fock_cutoff must be at least 4, got {self.fock_cutoff}")
        if self.fock_cutoff > MAX_CUTOFF:
            raise ValueError(f"fock_cutoff must be at most {MAX_CUTOFF}, got {self.fock_cutoff}")
        if not self.fock_tol > 0:
            raise ValueError(f"fock_tol must be positive, got {self.fock_tol}")


def _sector_band(c: DerivedCouplings, cutoff: int, parity: int) -> np.ndarray:
    """Lower band storage, band[d, j] = H[j + d, j], of the real-gauge H
    (photon phase a -> i a turns the +-i couplings real) on the states |n, m>
    with n, m <= cutoff and n + m = parity (mod 2), ordered by n, then m.
    Every coupling changes n by one, so coupled states sit in adjacent
    n-blocks of at most (cutoff + 2)//2 states: (cutoff + 1)//2 + 2 band rows.
    """
    n, m = np.divmod(np.arange((cutoff + 1) ** 2), cutoff + 1)
    sector = (n + m) % 2 == parity
    n, m = n[sector], m[sector]
    index = np.zeros((cutoff + 1, cutoff + 1), dtype=int)
    index[n, m] = np.arange(n.size)

    g_root = np.sqrt(c.n_emitters) * c.g_tilde
    p = c.xi_tilde * c.handedness
    rows, cols, values = [], [], []
    # pair term g(1 - p) sqrt((n+1)(m+1)) to |n+1, m+1>,
    # swap term g(1 + p) sqrt((n+1)m) to |n+1, m-1>
    for step, weight in ((1, g_root * (1 - p)), (-1, g_root * (1 + p))):
        link = (n < cutoff) & (0 <= m + step) & (m + step <= cutoff)
        rows.append(index[n[link] + 1, m[link] + step])
        cols.append(link.nonzero()[0])
        values.append(weight * np.sqrt((n[link] + 1.0) * np.maximum(m, m + step)[link]))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    band = np.zeros((np.max(rows - cols) + 1, n.size))
    band[0] = c.omega_k_bar * (n + 0.5) + c.omega_m_tilde * (m + 0.5)
    band[rows - cols, cols] = np.concatenate(values)
    return band


def _sector_levels(c: DerivedCouplings, cutoff: int, parity: int, count: int) -> np.ndarray:
    """The lowest `count` levels of one parity sector, ascending (all of them
    when the sector is smaller)."""
    band = _sector_band(c, cutoff, parity)
    last = min(count, band.shape[1]) - 1
    return scipy.linalg.eig_banded(
        band, lower=True, eigvals_only=True, select="i", select_range=(0, last)
    )


def _forked_map(func, tasks: list, workers: int) -> list:
    """[func(*task) for task in tasks], with the tasks split into contiguous
    chunks of ceil(len(tasks)/workers), each run by its own forked child.

    A child sends one pickled (ok, results or exception) record up its pipe
    and leaves by os._exit, so it neither flushes the stdio buffers it
    inherited nor runs exit handlers. The parent reads the pipes in chunk
    order and raises a child's exception as it is; a child that left no
    readable record (killed, crashed, or its record would not pickle) is a
    ChildProcessError. Every child is reaped before the call returns, and on an
    error any child still running is killed first.
    """
    size = -(-len(tasks) // workers)
    pids, pipes = [], []
    done = False
    try:
        for start in range(0, len(tasks), size):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as writer:  # the parent's copy closes here
                pid = os.fork()
                if pid == 0:
                    try:
                        try:
                            record = (True, [func(*task) for task in tasks[start : start + size]])
                        except BaseException as error:
                            record = (False, error)
                        writer.write(pickle.dumps(record))
                        writer.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        results = []
        for pid, pipe in zip(pids, pipes):
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as error:
                raise ChildProcessError(f"oracle worker {pid} left no readable result") from error
            if not ok:
                raise value
            results.extend(value)
        done = True
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def low_levels(
    c: DerivedCouplings | Sequence[DerivedCouplings],
    cutoff: int,
    count: int | Sequence[int] = FULL_COUNT,
) -> np.ndarray | list[np.ndarray]:
    """Lowest `count` eigenvalues of the truncated Hamiltonian, ascending: one
    array for one set; for a sequence of sets, one row per set, or, with one
    count per set, a list of one array per set.

    A sector solve is a band-to-tridiagonal reduction, whose cost is fixed,
    and a bisection for each level asked for: at cutoff 40 the reduction is
    ~0.6 of a FULL_COUNT solve, so oracle_check asks each set for only the
    levels its ladder fit reads (see the module note).

    Each (set, parity) sector is one task. With more than one CPU, and at
    least POOL_MIN_STATES states over all sectors, the tasks go in one
    contiguous chunk per CPU to forked children that live for this call only
    (`_forked_map`); the levels are bitwise those of an in-process solve.
    """
    sets = [c] if isinstance(c, DerivedCouplings) else list(c)
    counts = [count] * len(sets) if np.ndim(count) == 0 else list(count)
    tasks = [(s, cutoff, parity, k) for s, k in zip(sets, counts) for parity in (0, 1)]
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers == 1 or len(sets) * (cutoff + 1) ** 2 < POOL_MIN_STATES:
        sectors = list(map(_sector_levels, *zip(*tasks)))
    else:
        # the attribute access imports scipy.linalg here, once, so that every
        # child forks with it loaded instead of importing it (~0.26 s) itself
        scipy.linalg
        sectors = _forked_map(_sector_levels, tasks, workers)
    pairs = zip(sectors[0::2], sectors[1::2])
    levels = [np.sort(np.concatenate(pair))[:k] for pair, k in zip(pairs, counts)]
    if isinstance(c, DerivedCouplings):
        return levels[0]
    return np.array(levels) if np.ndim(count) == 0 else levels


def _lattice(om_minus: float, om_plus: float, limit: float, count: int) -> np.ndarray:
    values = []
    n = 0
    while n * om_minus <= limit:
        m = 0 if n > 0 else 1
        while n * om_minus + m * om_plus <= limit:
            values.append(n * om_minus + m * om_plus)
            m += 1
        n += 1
    values.sort()
    return np.asarray(values[:count])


@dataclass(frozen=True)
class LadderFit:
    """Gap structure read off a quadratic-Hamiltonian spectrum.

    omega_minus is the first gap E1 - E0; omega_plus the value whose ladder
    E0 + n omega_minus + m omega_plus best reproduces the observed levels
    (multiplicities included). `degenerate` marks a doubly degenerate first
    gap (omega_plus = omega_minus); `ambiguous` marks near-commensurate or
    unidentifiable ladders, and an unidentified one has a NaN residual.
    `levels_read` counts the levels, from E0 up, that the fit compared:
    every level it was given when no stiff gap showed.
    """

    omega_minus: float
    omega_plus: float
    residual: float
    degenerate: bool
    ambiguous: bool
    levels_read: int


def fit_ladder(levels, tol: float) -> LadderFit:
    levels = np.sort(np.asarray(levels, dtype=float))
    if levels.size < 4:
        raise ValueError("need at least 4 levels to identify the gap structure")
    gaps = levels[1:] - levels[0]
    om = float(gaps[0])
    if om <= 0:
        raise ValueError("first gap is nonpositive; spectrum is not a ladder")
    match_tol = 10.0 * tol * (abs(float(levels[0])) + om)  # two gaps this close are equal

    # Walk up the pure soft ladder om, 2 om, 3 om, ...; the first position
    # that breaks the pattern marks the onset of the stiff gap, either as a
    # new value or as an extra copy of a commensurate rung. Restricting the
    # fit to a small window around it keeps unconverged high rungs (whose
    # occupations approach the cutoff) out of the comparison.
    onset = next(
        (index for index, gap in enumerate(gaps) if abs(gap - (index + 1) * om) > match_tol),
        None,
    )
    if onset is None:
        # stiff gap beyond the retained window: not identifiable
        return LadderFit(om, om, float("nan"), False, True, levels.size)

    window = gaps[: min(onset + RUNGS_PAST_ONSET, gaps.size)]

    def residual_for(cand: float) -> float:
        lattice = _lattice(om, cand, limit=float(window[-1]) + match_tol, count=window.size)
        if lattice.size < window.size:
            return float("inf")
        return float(np.max(np.abs(lattice - window)))

    candidates: list[float] = []
    for gap in window[onset:]:
        if all(abs(gap - known) > match_tol for known in candidates):
            candidates.append(float(gap))
    if abs(gaps[onset] - om) <= match_tol and om not in candidates:
        candidates.append(om)  # doubly degenerate first gap
    scored = sorted((residual_for(cand), cand) for cand in candidates)
    best_resid, best = scored[0]
    degenerate = abs(best - om) <= match_tol
    ambiguous = best_resid > match_tol
    if len(scored) > 1:
        second_resid, second = scored[1]
        if second_resid < 2.0 * best_resid and abs(second - best) > match_tol:
            ambiguous = True
    if not np.isfinite(best_resid):
        best_resid = float("nan")  # no candidate ladder was long enough
    return LadderFit(
        om, om if degenerate else best, best_resid, degenerate, ambiguous, window.size + 1
    )


def _sized_count(analytic_plus: float, analytic_minus: float, tol: float) -> int:
    """Levels to solve for a set: the levels fit_ladder reads on the set's
    analytic ladder E0 + n Omega- + m Omega+, plus two spare, at most
    FULL_COUNT."""
    # the stiff gap's onset is at least Omega+/Omega- - 1 gaps up; this also
    # keeps _lattice finite when Omega- is 0 or NaN
    if not analytic_plus < (FULL_COUNT - RUNGS_PAST_ONSET - 2) * analytic_minus:
        return FULL_COUNT
    gaps = _lattice(
        analytic_minus,
        analytic_plus,
        limit=analytic_plus + RUNGS_PAST_ONSET * analytic_minus,
        count=FULL_COUNT,
    )
    e0 = 0.5 * (analytic_plus + analytic_minus)
    ladder = e0 + np.concatenate(([0.0], gaps))
    return min(FULL_COUNT, fit_ladder(ladder, tol).levels_read + 2)


@dataclass(frozen=True)
class OracleReport:
    """Comparison of the Fock-oracle gaps against the analytic frequencies."""

    omega_plus: float
    omega_minus: float
    e0: float
    analytic_plus: float
    analytic_minus: float
    deviation_plus: float
    deviation_minus: float
    e0_deviation: float
    ladder_residual: float
    degenerate: bool
    ambiguous: bool
    converged: Optional[bool] = None


def oracle_check(
    c: DerivedCouplings | Sequence[DerivedCouplings],
    config: FockConfig = FockConfig(),
    check_convergence: bool = True,
) -> OracleReport | list[OracleReport]:
    """Diagonalize, read off the gaps, and compare against the analytic values:
    one report for one set, a list in set order for a sequence of sets, with
    one low_levels call per cutoff for all of them.

    Each set's solve is sized from its analytic ladder (`_sized_count`) and
    verified by its fit: a set whose fit read every level solved goes into
    one more low_levels call at FULL_COUNT levels, so a report never rests on
    a window cut short. E0 is compared against the vacuum energy
    (Omega+ + Omega-)/2, whose enantiomer difference is the discriminating
    Delta E_vac. With check_convergence the run is repeated at twice the
    cutoff and `converged` records whether the deviations stopped growing
    (down to the tol floor).
    """
    sets = [c] if isinstance(c, DerivedCouplings) else list(c)
    analytic = [hopfield.polariton_frequencies(s) for s in sets]
    counts = [_sized_count(plus, minus, config.fock_tol) for plus, minus in analytic]

    def gaps_at(cutoff: int):
        levels = low_levels(sets, cutoff, counts)
        fits = [fit_ladder(row, config.fock_tol) for row in levels]
        again = [
            i
            for i, (row, fit) in enumerate(zip(levels, fits))
            if fit.levels_read == row.size and counts[i] < FULL_COUNT
        ]
        if again:
            for i, row in zip(again, low_levels([sets[i] for i in again], cutoff)):
                levels[i], fits[i] = row, fit_ladder(row, config.fock_tol)
        gaps = []
        for row, fit, (analytic_plus, analytic_minus) in zip(levels, fits, analytic):
            dev_plus = abs(fit.omega_plus - analytic_plus) / analytic_plus
            dev_minus = abs(fit.omega_minus - analytic_minus) / max(
                analytic_minus, 1e-300
            )
            gaps.append((row, fit, dev_plus, dev_minus))
        return gaps

    main = gaps_at(config.fock_cutoff)
    doubled = gaps_at(2 * config.fock_cutoff) if check_convergence else [None] * len(sets)
    reports = []
    for (analytic_plus, analytic_minus), (levels, fit, dev_plus, dev_minus), gaps2 in zip(
        analytic, main, doubled
    ):
        e_vac = 0.5 * (analytic_plus + analytic_minus)
        report = dict(
            omega_plus=fit.omega_plus,
            omega_minus=fit.omega_minus,
            e0=float(levels[0]),
            analytic_plus=analytic_plus,
            analytic_minus=analytic_minus,
            deviation_plus=dev_plus,
            deviation_minus=dev_minus,
            e0_deviation=abs(float(levels[0]) - e_vac) / e_vac,
            ladder_residual=fit.residual,
            degenerate=fit.degenerate,
            ambiguous=fit.ambiguous,
        )
        if gaps2 is not None:
            _, _, dev2_plus, dev2_minus = gaps2
            report.update(
                converged=(
                    dev2_plus <= max(dev_plus, config.fock_tol)
                    and dev2_minus <= max(dev_minus, config.fock_tol)
                )
            )
        reports.append(OracleReport(**report))
    return reports[0] if isinstance(c, DerivedCouplings) else reports
