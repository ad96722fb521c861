"""Independent brute-force validator: exact diagonalization of the two-mode
chiral Hopfield Hamiltonian in a truncated Fock basis.

The Hamiltonian only involves the two collective modes (the dark states are
already eliminated); the basis keeps every |n, m> with n, m <= cutoff. The
coupling changes both occupations by one, so each parity sector of n + m,
ordered by n, then m, is a band of half-width about cutoff/2 in a real gauge,
and LAPACK's band solver gives its lowest levels (sectors of 841 and 840
states at the default cutoff 40). A sector's states and links depend only on
(cutoff, parity) and are cached; a band fills in only the couplings. The
tests hold the faithful complex Hermitian matrix on the full basis and check
the sectors against it.

oracle_check solves each set at the smallest box that a residual
certificate accepts. It tries the cutoffs 8, 12, ..., 32, then even steps
of at most x1.25 up to fock_cutoff, its ceiling. At each step the set's levels come
from the band solver, and the ladder fit reads its window off them; two steps
of inverse iteration, on one banded LU of the band shifted just below each
level, then give vectors for the levels read, and their residual in the
untruncated Hamiltonian, which the band of box C + 1 gives in full, bounds
how far each level is from a true one. The first box whose bound is at most
fock_tol (E1 - E0)/2 on every level read is accepted, so each gap is
certified within fock_tol Omega-; a step bounds the even sector, which holds
E0, first, and fails at its first sector above that. A set that no box
certifies is reported from the ceiling solve. The analytic values never
accept a box.

Each solve is sized from the set's analytic ladder: it asks for the levels
the ladder fit would read on that ladder, plus two, and then checks that the
fit's window really closed inside the levels solved. A set whose window ran
to the last one is solved again at FULL_COUNT levels, so every report is the
one a FULL_COUNT solve gives, up to eigenvalue ulps.

oracle_check takes one parameter set or a sequence of them. Each set's whole
search is one task; the tasks are independent and hold the GIL, so a call
with enough sets to repay the fork runs them in one forked child per CPU.
A child takes the next task from a shared pipe whenever it is free and sends
its results back over a pipe of its own (`_forked_map`): the levels and
the ladder fit they were certified with, from which the calling process
builds the reports. The residual certificate is the only truncation check:
no set is solved again at a larger box. A report is a plain record: the
oracle CSV and its columns belong to `scans.run_oracle_suite`. low_levels
solves one set at a fixed cutoff, in process; the oracle does not call it.

LAPACK is loaded with `scipy.linalg`, which this module reaches as an
attribute of `scipy`: SciPy imports the submodule at the first access, which
is the first sector solve, or the line just before the children fork.
Importing this module, and with it the CLI, does not import `scipy.linalg`;
nor does it import `multiprocessing`: the fork map needs only `os`.
"""

import functools
import os
import pickle
import signal
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy

from . import hopfield
from .couplings import DerivedCouplings


MAX_CUTOFF = 100  # input validation: a sector at 100 holds 5101 states
# oracle_check forks its cutoff searches from this many sets on. At the default
# ceiling 40 on 2 vCPUs, forked suites took 1.0-1.2 of the in-process time at
# two and three sets, 0.90-0.97 at four and 0.65-0.75 at twenty.
SEARCH_MIN_SETS = 4
FULL_COUNT = 48  # levels of an unsized solve, and the most a sized one asks for
RUNGS_PAST_ONSET = 5  # gaps the ladder fit compares past the stiff gap's onset
RECORD = 4  # bytes of one task index in the fork map's shared pipe
PIPE_BUF = 512  # POSIX's least PIPE_BUF: a pipe write of at most this many bytes is atomic


@dataclass(frozen=True)
class FockConfig:
    """fock_cutoff: the largest max occupation per mode that the cutoff search
    tries; fock_tol: relative acceptance tolerance on the polariton
    frequencies. The names are the oracle's config keys, so an error names
    the key to change."""

    fock_cutoff: int = 40
    fock_tol: float = 1e-8

    def __post_init__(self):
        if self.fock_cutoff < 4:
            raise ValueError(f"fock_cutoff must be at least 4, got {self.fock_cutoff}")
        if self.fock_cutoff > MAX_CUTOFF:
            raise ValueError(f"fock_cutoff must be at most {MAX_CUTOFF}, got {self.fock_cutoff}")
        if not self.fock_tol > 0:
            raise ValueError(f"fock_tol must be positive, got {self.fock_tol}")


class _Sector(NamedTuple):
    """What a sector's band needs besides the couplings, all read-only.

    n, m: the occupations of its states |n, m> with n, m <= cutoff and
    n + m = parity (mod 2), ordered by n, then m; inner: the states inside box
    cutoff - 1; links: (band rows, columns, square-root factors) of the pair
    and of the swap term; width: band rows."""

    n: np.ndarray
    m: np.ndarray
    inner: np.ndarray
    links: tuple
    width: int


@functools.lru_cache(maxsize=2 * (MAX_CUTOFF + 2))  # both parities, boxes 0 to MAX_CUTOFF + 1
def _sector(cutoff: int, parity: int) -> _Sector:
    n, m = np.divmod(np.arange((cutoff + 1) ** 2), cutoff + 1)
    in_sector = (n + m) % 2 == parity
    n, m = n[in_sector], m[in_sector]
    index = np.zeros((cutoff + 1, cutoff + 1), dtype=int)
    index[n, m] = np.arange(n.size)
    links = []
    # pair term to |n+1, m+1>, swap term to |n+1, m-1>
    for step in (1, -1):
        link = (n < cutoff) & (0 <= m + step) & (m + step <= cutoff)
        cols = link.nonzero()[0]
        rows = index[n[link] + 1, m[link] + step] - cols
        links.append((rows, cols, np.sqrt((n[link] + 1.0) * np.maximum(m, m + step)[link])))
    width = int(np.max(np.concatenate([rows for rows, _, _ in links]))) + 1
    inner = (n < cutoff) & (m < cutoff)
    for array in (n, m, inner, *(array for link in links for array in link)):
        array.flags.writeable = False
    return _Sector(n, m, inner, tuple(links), width)


def _sector_band(c: DerivedCouplings, cutoff: int, parity: int) -> np.ndarray:
    """Lower band storage, band[d, j] = H[j + d, j], of the real-gauge H
    (photon phase a -> i a turns the +-i couplings real) on the states |n, m>
    with n, m <= cutoff and n + m = parity (mod 2), ordered by n, then m.
    Every coupling changes n by one, so coupled states sit in adjacent
    n-blocks of at most (cutoff + 2)//2 states: (cutoff + 1)//2 + 2 band rows.
    """
    sector = _sector(cutoff, parity)
    band = np.zeros((sector.width, sector.n.size))
    band[0] = c.omega_k_bar * (sector.n + 0.5) + c.omega_m_tilde * (sector.m + 0.5)
    # pair term g(1 - p) sqrt((n+1)(m+1)), swap term g(1 + p) sqrt((n+1)m);
    # g = sqrt(N) g~, p = xi~ lambda
    g_root = np.sqrt(c.n_emitters) * c.g_tilde
    p = c.xi_tilde * c.handedness
    for (rows, cols, roots), weight in zip(sector.links, (g_root * (1 - p), g_root * (1 + p))):
        band[rows, cols] = weight * roots
    return band


def _lowest(band: np.ndarray, count: int) -> np.ndarray:
    last = min(count, band.shape[1]) - 1
    return scipy.linalg.eig_banded(
        band, lower=True, eigvals_only=True, select="i", select_range=(0, last)
    )


def _residual_bound(c: DerivedCouplings, cutoff: int, parity: int, band, levels) -> float:
    """A bound r such that each of `levels`, the lowest levels of one sector
    from eig_banded, lies within r of its own eigenvalue of the untruncated
    Hamiltonian (Kahan's theorem; Parlett, The Symmetric Eigenvalue Problem).

    Two steps of inverse iteration, shifted just below each level, give one
    vector per level; both solve with one banded LU of the shifted band
    (LAPACK dgbtrf, then dgbtrs), and a singular one is a LinAlgError.
    Rayleigh-Ritz on the orthonormalized block Q, with A = Q^T H Q, puts the
    eigenvalues of A within ||H Q - Q A||_2 of as many distinct eigenvalues
    of H, so a multiple level counts with its multiplicity. Q sits on the
    states of the next box, C + 1, zero outside box C. Every coupling moves
    n and m by one, so the next box's H gives H Q in full: its rows inside
    box C are H_C Q, the rest the leak of Q out of the box. The bound adds
    how far each level is from its eigenvalue of A.
    """
    lower = band.shape[0] - 1
    size = band.shape[1]
    # dgbtrf's general band storage: `lower` rows for the fill-in of its row
    # interchanges, the band mirrored above the diagonal, then the band
    general = np.zeros((3 * lower + 1, size))
    general[2 * lower :] = band
    for d in range(1, lower + 1):
        general[2 * lower - d, d:] = band[d, :-d]
    # a fixed start with no special symmetry, one column per level
    vectors = np.cos(np.outer(np.arange(1, size + 1), np.arange(1, levels.size + 1)) * 2.4)
    lapack = scipy.linalg.lapack
    for j, level in enumerate(levels):
        # just below the level, so that a decoupled (diagonal) band is not singular
        general[2 * lower] = band[0] - (level - 1e-12 * abs(level))
        lu, pivots, info = lapack.dgbtrf(general, lower, lower)  # one LU, two solves
        if info != 0:
            raise np.linalg.LinAlgError(f"singular shifted band (dgbtrf info {info})")
        for _ in range(2):
            vectors[:, j] = lapack.dgbtrs(lu, lower, lower, vectors[:, j], pivots)[0]
    sector = _sector(cutoff + 1, parity)
    q = np.zeros((sector.n.size, levels.size))  # on the next box's states, zero outside this box
    q[sector.inner] = np.linalg.qr(vectors)[0]
    next_band = _sector_band(c, cutoff + 1, parity)
    hq = next_band[0, :, None] * q
    for d in range(1, next_band.shape[0]):
        hq[d:] += next_band[d, :-d, None] * q[:-d]
        hq[:-d] += next_band[d, :-d, None] * q[d:]
    a = q.T @ hq
    return np.linalg.norm(hq - q @ a, 2) + np.max(np.abs(np.linalg.eigvalsh(a) - levels))


def _cutoff_steps(ceiling: int) -> list[int]:
    """C = 8, 12, ..., 32, then the fewest evenly spaced steps of at most
    x1.25 up to the ceiling (40 for 40; 38, 46, 55, 67, 80 for 80). Even
    steps leave no short last step, which would cost almost one more
    solve at the ceiling."""
    steps = [cutoff for cutoff in range(8, 33, 4) if cutoff < ceiling]
    if ceiling <= 32:
        return steps + [ceiling]
    count = 1
    while True:
        upper = [round(32 * (ceiling / 32) ** (i / count)) for i in range(count + 1)]
        if all(high <= 1.25 * low for low, high in zip(upper, upper[1:])):
            return steps + upper[1:]
        count += 1


def _certified_levels(c: DerivedCouplings, ceiling: int, count: int, tol: float):
    """(cutoff, certified, levels, fit) of one set: its lowest levels at the
    first cutoff step whose residual bounds put every level its ladder fit
    reads within tol (E1 - E0) / 2 of the untruncated one, or at the
    ceiling, uncertified, when no step does; and the ladder fit of those
    levels.

    Each step solves for `count` levels, and again for FULL_COUNT when the
    fit read all of them; the levels and fit returned are the last solve's.
    A step bounds the even sector first and the odd one only when the even
    one passed, which accepts the same box as the larger of the two bounds
    would.
    """
    for cutoff in _cutoff_steps(ceiling):
        bands = [_sector_band(c, cutoff, parity) for parity in (0, 1)]
        for solved in (count, FULL_COUNT):
            sectors = [_lowest(band, solved) for band in bands]
            levels = np.sort(np.concatenate(sectors))[:solved]
            fit = fit_ladder(levels, tol)
            if fit.levels_read < levels.size or solved == FULL_COUNT:
                break
        highest = levels[fit.levels_read - 1]
        threshold = 0.5 * tol * (levels[1] - levels[0])
        # the even sector, which holds E0, first; a step ends at its first
        # sector above the threshold
        if all(
            _residual_bound(c, cutoff, parity, band, found[found <= highest]) <= threshold
            for parity, (band, found) in enumerate(zip(bands, sectors))
        ):
            return cutoff, True, levels, fit
    return cutoff, False, levels, fit


def _forked_map(func, tasks: list, workers: int) -> list:
    """[func(*task) for task in tasks], run by `workers` forked children,
    each of which takes the next task index from one shared pipe whenever it
    is free, so that a long task holds up one child, not the tasks after it.

    The parent writes the indices as RECORD-byte records once every child
    has forked, in atomic writes of at most PIPE_BUF bytes, so each read of
    a record gets a whole one; it then closes its ends, and a child that
    reads end-of-file is done. A list longer than the pipe holds (64 KiB)
    makes the parent's write wait for the children. A child stops at its
    first error, sends one pickled record, its (index, result) pairs and the
    (index, exception) that stopped it or None, up a pipe of its own, and
    leaves by os._exit, so it neither flushes the stdio buffers it inherited
    nor runs exit handlers. Once every child has stopped, the parent's write
    fails and the records say why. The parent reads them in child order: a
    child that left no readable record (killed, crashed, or its record would
    not pickle) is a ChildProcessError. Otherwise the exception of the lowest
    failing index is raised as it is; the indices are dealt in order, so
    that task always runs, whichever child takes it. Every child is reaped
    before the call returns, and on an error any child still running is
    killed first.
    """
    pids, pipes = [], []
    done = False
    read_end, write_end = os.pipe()
    indices, dealer = open(read_end, "rb", buffering=0), open(write_end, "wb", buffering=0)
    try:
        for _ in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as writer:  # the parent's copy closes here
                pid = os.fork()
                if pid == 0:
                    try:
                        dealer.close()
                        pairs, failure = [], None
                        while record := indices.read(RECORD):
                            index = int.from_bytes(record, "little")
                            try:
                                pairs.append((index, func(*tasks[index])))
                            except BaseException as error:
                                failure = (index, error)
                                break
                        # a parent waiting on a full pipe gets EPIPE once
                        # every child has stopped reading
                        indices.close()
                        writer.write(pickle.dumps((pairs, failure)))
                        writer.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        indices.close()
        dealt = np.arange(len(tasks), dtype="<u4").tobytes()
        try:
            for start in range(0, len(dealt), PIPE_BUF):
                dealer.write(dealt[start : start + PIPE_BUF])
        except BrokenPipeError:
            pass  # every child has stopped; their records say why
        dealer.close()
        results, failures = [None] * len(tasks), []
        for pid, pipe in zip(pids, pipes):
            try:
                pairs, failure = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as error:
                raise ChildProcessError(f"oracle worker {pid} left no readable result") from error
            for index, result in pairs:
                results[index] = result
            if failure is not None:
                failures.append(failure)
        if failures:
            raise min(failures, key=lambda pair: pair[0])[1]
        done = True
        return results
    finally:
        for pipe in (indices, dealer, *pipes):
            pipe.close()
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _mapped(func, tasks: list) -> list:
    """[func(*task) for task in tasks]: in forked children (`_forked_map`)
    from SEARCH_MIN_SETS tasks on, when there is more than one CPU."""
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers == 1 or len(tasks) < SEARCH_MIN_SETS:
        return [func(*task) for task in tasks]
    # the attribute access imports scipy.linalg here, once, so that every
    # child forks with it loaded instead of importing it (~0.26 s) itself
    scipy.linalg
    return _forked_map(func, tasks, workers)


def low_levels(c: DerivedCouplings, cutoff: int, count: int = FULL_COUNT) -> np.ndarray:
    """The lowest `count` eigenvalues of one set's Hamiltonian truncated at
    `cutoff`, ascending (all of them when the box holds fewer), solved in
    process: a fixed-cutoff reference for the cutoff search, which calls the
    band solver directly and never this."""
    sectors = [_lowest(_sector_band(c, cutoff, parity), count) for parity in (0, 1)]
    return np.sort(np.concatenate(sectors))[:count]


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
    unidentifiable ladders, and an unidentified one has a NaN residual: so is
    every ladder when the match tolerance, 10 tol (|E0| + omega_minus), is at
    least half the first gap. `levels_read` counts the levels, from E0 up,
    that the fit compared: E0 and E1 when the match tolerance identifies no
    ladder, and every level it was given when no stiff gap showed.
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
    if match_tol >= 0.5 * om:
        # every rung would match a neighbour's: no ladder can be identified,
        # and no level past E1 is compared
        return LadderFit(om, om, float("nan"), False, True, 2)

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
    """Comparison of the Fock-oracle gaps against the analytic frequencies.
    `cutoff` is the box the levels come from; `certified` says whether its
    residual bounds hold every level the fit read within fock_tol (E1 - E0)/2,
    the oracle's one truncation check."""

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
    cutoff: int
    certified: bool


def oracle_check(
    c: DerivedCouplings | Sequence[DerivedCouplings], config: FockConfig = FockConfig()
) -> OracleReport | list[OracleReport]:
    """Diagonalize, read off the gaps, and compare against the analytic values:
    one report for one set, a list in set order for a sequence of sets.

    Each set is solved at the smallest cutoff step whose residual bounds
    certify the levels its fit reads (`_certified_levels`), with fock_cutoff
    as the ceiling; the searches of all sets are one `_mapped` call, and each
    report reads its gaps off the fit its search returns. Each solve is sized
    from the set's analytic ladder (`_sized_count`) and verified by its fit:
    a set whose fit read every level solved is solved again at FULL_COUNT
    levels, so a report never rests on a window cut short. E0 is compared
    against the vacuum energy (Omega+ + Omega-)/2, whose enantiomer
    difference is the discriminating Delta E_vac.
    """
    sets = [c] if isinstance(c, DerivedCouplings) else list(c)
    analytic = [hopfield.polariton_frequencies(s) for s in sets]
    counts = [_sized_count(plus, minus, config.fock_tol) for plus, minus in analytic]
    tasks = [(s, config.fock_cutoff, k, config.fock_tol) for s, k in zip(sets, counts)]
    reports = []
    for (analytic_plus, analytic_minus), (cutoff, certified, levels, fit) in zip(
        analytic, _mapped(_certified_levels, tasks)
    ):
        e_vac = 0.5 * (analytic_plus + analytic_minus)
        reports.append(
            OracleReport(
                omega_plus=fit.omega_plus,
                omega_minus=fit.omega_minus,
                e0=float(levels[0]),
                analytic_plus=analytic_plus,
                analytic_minus=analytic_minus,
                deviation_plus=abs(fit.omega_plus - analytic_plus) / analytic_plus,
                deviation_minus=abs(fit.omega_minus - analytic_minus) / max(analytic_minus, 1e-300),
                e0_deviation=abs(float(levels[0]) - e_vac) / e_vac,
                ladder_residual=fit.residual,
                degenerate=fit.degenerate,
                ambiguous=fit.ambiguous,
                cutoff=cutoff,
                certified=certified,
            )
        )
    return reports[0] if isinstance(c, DerivedCouplings) else reports
