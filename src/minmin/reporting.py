"""Deterministic text reports for verification runs.

Reports with the same configuration and seed are byte-identical: every float is
rendered with a fixed format, and wall time, stage timings and work counters
are kept out of the document (they go to the log instead).
"""

import logging
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureReport, failed_checks
from .meshes import format_rows


# %-templates of one point's row in the report and in its CSV sidecar
REPORT_ROW = "%-6d %+.12e %+.12e %.6e %s\n"
CSV_ROW = "%d,%.17g,%.17g,%.17g,%d,%s\n"


def _fmt(v) -> str:
    return f"{v:.12e}" if isinstance(v, float) else str(v)


@dataclass
class VerificationReport:
    """Config echo, per-point rows and aggregate tallies of the CurvatureReport
    stack reports; given h_tol, a point with |h_analytic| > h_tol fails too."""

    command: str
    config: dict
    reports: CurvatureReport
    h_tol: float | None = None
    reasons: np.ndarray = field(init=False)  # failed_checks of each point
    passes: np.ndarray = field(init=False)  # reasons == "-": the point passed
    aggregate: dict = field(init=False)

    def __post_init__(self):
        r = self.reports
        self.reasons = failed_checks(r, r.tol, self.h_tol)
        self.passes = self.reasons == "-"
        n_pass = int(np.count_nonzero(self.passes))
        # Python max over the column's floats: like the row loop it replaces,
        # it skips a NaN after the first element and gives 0.0 for no rows
        self.aggregate = {
            "points": len(r),
            "pass": n_pass,
            "fail": len(r) - n_pass,
            "max_abs_h": max(np.abs(r.h_analytic).tolist(), default=0.0),
            "max_oracle_dev": max(np.abs(r.h_analytic - r.h_oracle).tolist(),
                                  default=0.0),
            "max_defect": max(r.tangency_defect.tolist(), default=0.0),
        }

    @property
    def passed(self) -> bool:
        return self.aggregate["fail"] == 0

    def _columns(self, passed):
        """The columns index, h_analytic, h_oracle, tangency_defect and the
        caller's pass column, which the rows of render and of the CSV share."""
        r = self.reports
        return [np.arange(len(r)), r.h_analytic, r.h_oracle, r.tangency_defect, passed]

    def render(self) -> str:
        head = [f"minmin {self.command} report", "=" * (len(self.command) + 14), ""]
        for key in sorted(self.config):
            head.append(f"{key}: {_fmt(self.config[key])}")
        head.append("")
        head.append("index  h_analytic          h_oracle            defect        pass")
        tail = ["", "aggregate", "---------"]
        for key in ("points", "pass", "fail", "max_abs_h", "max_oracle_dev",
                    "max_defect"):
            tail.append(f"{key}: {_fmt(self.aggregate[key])}")
        tail.append(f"status: {'PASS' if self.passed else 'FAIL'}")
        tail.append("")
        ok = np.where(self.passes, "yes", "NO")
        return "".join([
            "\n".join(head), "\n",
            *format_rows(REPORT_ROW, self._columns(ok)),
            "\n".join(tail),
        ])

    def write_points_csv(self, path):
        columns = self._columns(self.passes.astype(int)) + [self.reasons]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,h_analytic,h_oracle,tangency_defect,passed,reason\n")
            fh.writelines(format_rows(CSV_ROW, columns))


class RunStats:
    """CPU and wall seconds per stage, and work counters, of one run.

    For the log only: nothing here is rendered into a report.  Stages are
    timed and least values computed only where log() would print them, that
    is where the minmin logger is enabled for INFO (stages) or DEBUG (least
    values) when the RunStats is made; elsewhere stage() reads no clock and
    least() calls nothing.
    """

    def __init__(self):
        self.seconds = {}  # stage -> [cpu, wall]
        self.counts = {}
        self.least_values = {}
        logger = logging.getLogger("minmin")
        self.timed = logger.isEnabledFor(logging.INFO)
        self.debug = logger.isEnabledFor(logging.DEBUG)

    def stage(self, name: str):
        """A context that adds its CPU and wall seconds to the stage name."""
        return self._timed_stage(name) if self.timed else nullcontext()

    @contextmanager
    def _timed_stage(self, name: str):
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            cell = self.seconds.setdefault(name, [0.0, 0.0])
            cell[0] += time.process_time() - cpu
            cell[1] += time.perf_counter() - wall

    def count(self, name: str, k: int):
        self.counts[name] = self.counts.get(name, 0) + k

    def least(self, name: str, value):
        """Keep the smallest value() seen under name; value, a callable that
        returns a float, is called only at debug, where log() prints it."""
        if self.debug:
            v = value()
            self.least_values[name] = min(v, self.least_values.get(name, v))

    def log(self, logger, command: str):
        """Stage times at info, counters and least values at debug."""
        for name, (cpu, wall) in self.seconds.items():
            logger.info("%s stage %s: cpu %.3fs wall %.3fs", command, name, cpu, wall)
        for name, k in self.counts.items():
            logger.debug("%s %s: %d", command, name, k)
        for name, value in self.least_values.items():
            logger.debug("%s %s: %.3e", command, name, value)
