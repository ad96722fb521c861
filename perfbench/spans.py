"""In-memory span tracer for the traced benchmark run.

`install` rebinds public names of the package in the modules that call
them, so the real code path runs with a span around each call. Nothing is
wrapped in an untraced run. Spans live in memory as (name, start, end,
parent, call id, error) records and are written out once, at the end.
"""

import gzip
from collections import defaultdict
from time import perf_counter

from chiralpol import cli, fock_oracle, hopfield, scans, scantable, tavis_cummings

# Layers whose spans are aggregated into per-layer metrics; a layer a
# workload does not reach reports zero calls and zero seconds.
SPAN_NAMES = (
    "cli.main",
    "config.parse",
    "scans.scan_cavity",
    "scans.scan_n",
    "scans.scan_dispersion",
    "scans.run_oracle_suite",
    "scans.sample_stable_couplings",
    "scans.stability_factors",
    "emitters.Emitter",
    "couplings.derive_couplings",
    "hopfield.solve_polaritons",
    "hopfield.hopfield_coefficients",
    "hopfield.polariton_frequencies",
    "fock_oracle.oracle_check",
    "fock_oracle.low_levels.c40",
    "fock_oracle.fit_ladder",
    "tavis_cummings.dispersion_scan",
    "scantable.ScanTable",
    "scantable.write",
)
CUTOFFS = (40,)


class Tracer:
    def __init__(self):
        self.records = []
        self.stack = []
        self.call_id = -1
        self.active = True
        self.counts = {"fock_oracle.fit_ladder.ambiguous": 0, "scantable.write.bytes": 0}
        self.cutoffs = set()

    def wrap(self, fn, name):
        """`fn` with a span around each call; `name` may be a function of the args."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name(*args, **kwargs) if callable(name) else name
            index = len(tracer.records)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.records.append(None)
            tracer.stack.append(index)
            error = ""
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                error = type(err).__name__
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.records[index] = (span, start, end, parent, tracer.call_id, error)

        traced.__wrapped__ = fn
        return traced

    def entry(self, fn, name):
        """A top-level entry point: each call gets a new call id."""
        traced = self.wrap(fn, name)

        def call(*args, **kwargs):
            self.call_id += 1
            return traced(*args, **kwargs)

        return call

    def summary(self) -> dict:
        """Per-layer calls, total and self seconds, and the counts."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.records)
        instabilities = 0
        for span, start, end, parent, _, error in self.records:
            calls[span] += 1
            total[span] += end - start
            if parent >= 0:
                child[parent] += end - start
            if error.endswith("InstabilityError") and span.startswith("hopfield."):
                outer = parent < 0 or not self.records[parent][0].startswith("hopfield.")
                instabilities += outer
        own = defaultdict(float)
        for (span, start, end, *_), inner in zip(self.records, child):
            own[span] += end - start - inner
        metrics = {}
        for span in SPAN_NAMES:
            metrics[f"{span}.calls"] = calls[span]
            metrics[f"{span}.total_s"] = total[span]
            metrics[f"{span}.self_s"] = own[span]
        metrics.update(self.counts)
        metrics["hopfield.instability.count"] = instabilities
        draws = calls["scans.stability_factors"]
        metrics["scans.sample.accept_frac"] = (
            calls["scans.sample_stable_couplings"] / draws if draws else 0.0
        )
        for cutoff in CUTOFFS:
            # computed from the basis size, not measured
            dim = (cutoff + 1) ** 2 if cutoff in self.cutoffs else 0
            metrics[f"fock_oracle.dim.c{cutoff}"] = dim
            metrics[f"fock_oracle.h_bytes.c{cutoff}"] = 8 * dim * dim
        metrics["trace.spans"] = len(self.records)
        return metrics

    def write(self, path, header: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(f"# {header}\n")
            handle.write("span_id,parent_id,call_id,name,start_s,end_s,error\n")
            for index, (span, start, end, parent, call, error) in enumerate(self.records):
                handle.write(f"{index},{parent},{call},{span},{start!r},{end!r},{error}\n")


def install(tracer: Tracer) -> None:
    """Rebind the package's public names, in the modules that call them, to traced ones."""
    wrap = tracer.wrap

    def rebind(module, attr, name):
        setattr(module, attr, wrap(getattr(module, attr), name))

    rebind(cli, "parse_config_text", "config.parse")
    rebind(cli, "merge_config", "config.parse")
    for command, (defaults, runner) in list(scans.SCAN_COMMANDS.items()):
        scans.SCAN_COMMANDS[command] = (defaults, wrap(runner, f"scans.{runner.__name__}"))
    rebind(scans, "sample_stable_couplings", "scans.sample_stable_couplings")
    rebind(scans, "stability_factors", "scans.stability_factors")
    rebind(scans, "Emitter", "emitters.Emitter")
    rebind(scans, "derive_couplings", "couplings.derive_couplings")
    rebind(scans, "solve_polaritons", "hopfield.solve_polaritons")
    rebind(scans, "polariton_frequencies", "hopfield.polariton_frequencies")
    rebind(scans, "oracle_check", "fock_oracle.oracle_check")
    rebind(scans, "tc_dispersion_scan", "tavis_cummings.dispersion_scan")
    rebind(scans, "ScanTable", "scantable.ScanTable")
    rebind(tavis_cummings, "ScanTable", "scantable.ScanTable")
    rebind(hopfield, "polariton_frequencies", "hopfield.polariton_frequencies")
    rebind(hopfield, "hopfield_coefficients", "hopfield.hopfield_coefficients")

    low_levels = fock_oracle.low_levels

    def levels_span(c, cutoff, *args, **kwargs):
        tracer.cutoffs.add(cutoff)
        return f"fock_oracle.low_levels.c{cutoff}"

    fock_oracle.low_levels = wrap(low_levels, levels_span)

    fit = wrap(fock_oracle.fit_ladder, "fock_oracle.fit_ladder")

    def fit_ladder(*args, **kwargs):
        result = fit(*args, **kwargs)
        tracer.counts["fock_oracle.fit_ladder.ambiguous"] += bool(result.ambiguous)
        return result

    fock_oracle.fit_ladder = fit_ladder

    write = wrap(scantable.ScanTable.write, "scantable.write")

    def write_counted(table, stream):
        before = stream.tell()
        write(table, stream)
        tracer.counts["scantable.write.bytes"] += stream.tell() - before

    scantable.ScanTable.write = write_counted
