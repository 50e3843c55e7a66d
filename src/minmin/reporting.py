"""Deterministic text reports for verification runs.

Reports with the same configuration and seed are byte-identical: every float is
rendered with a fixed format, and wall time, stage timings and work counters
are kept out of the document (they go to the log instead).
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureReport


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.12e}"
    return str(v)


@dataclass
class VerificationReport:
    """Config echo, per-point curvature summaries and aggregate tallies."""

    command: str
    config: dict
    reports: list
    h_tol: float | None = None
    wall_time: float = 0.0  # logged, never serialized
    aggregate: dict = field(init=False)

    def __post_init__(self):
        self.aggregate = self._aggregate()

    def _reason(self, r: CurvatureReport) -> str:
        """The first check a point fails, "h" (|H| > h_tol), "oracle" or
        "defect", or "-" when it passes."""
        if self.h_tol is not None and not abs(r.h_analytic) <= self.h_tol:
            return "h"
        return r.failed_check

    def _point_passed(self, r: CurvatureReport) -> bool:
        return self._reason(r) == "-"

    def _aggregate(self) -> dict:
        n_pass = sum(1 for r in self.reports if self._point_passed(r))
        n_fail = len(self.reports) - n_pass
        return {
            "points": len(self.reports),
            "pass": n_pass,
            "fail": n_fail,
            "max_abs_h": max((abs(r.h_analytic) for r in self.reports), default=0.0),
            "max_oracle_dev": max(
                (abs(r.h_analytic - r.h_oracle) for r in self.reports), default=0.0
            ),
            "max_defect": max(
                (r.tangency_defect for r in self.reports), default=0.0
            ),
        }

    @property
    def passed(self) -> bool:
        return self.aggregate["fail"] == 0

    def render(self) -> str:
        lines = [f"minmin {self.command} report", "=" * (len(self.command) + 14), ""]
        for key in sorted(self.config):
            lines.append(f"{key}: {_fmt(self.config[key])}")
        lines.append("")
        lines.append("index  h_analytic          h_oracle            defect        pass")
        for i, r in enumerate(self.reports):
            ok = "yes" if self._point_passed(r) else "NO"
            lines.append(
                f"{i:<6d} {r.h_analytic:+.12e} {r.h_oracle:+.12e} "
                f"{r.tangency_defect:.6e} {ok}"
            )
        lines.append("")
        lines.append("aggregate")
        lines.append("---------")
        for key in ("points", "pass", "fail", "max_abs_h", "max_oracle_dev",
                    "max_defect"):
            lines.append(f"{key}: {_fmt(self.aggregate[key])}")
        lines.append(f"status: {'PASS' if self.passed else 'FAIL'}")
        lines.append("")
        return "\n".join(lines)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())

    def write_points_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            cols = ["index", "h_analytic", "h_oracle", "tangency_defect", "passed",
                    "reason"]
            fh.write(",".join(cols) + "\n")
            for i, r in enumerate(self.reports):
                reason = self._reason(r)
                fh.write(
                    f"{i},{r.h_analytic:.17g},{r.h_oracle:.17g},"
                    f"{r.tangency_defect:.17g},{int(reason == '-')},{reason}\n"
                )


class RunStats:
    """CPU and wall seconds per stage, and work counters, of one run.

    For the log only: nothing here is rendered into a report.
    """

    def __init__(self):
        self.seconds = {}  # stage -> [cpu, wall]
        self.counts = {}

    @contextmanager
    def stage(self, name: str):
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            cell = self.seconds.setdefault(name, [0.0, 0.0])
            cell[0] += time.process_time() - cpu
            cell[1] += time.perf_counter() - wall

    def count(self, name: str, k: int):
        self.counts[name] = self.counts.get(name, 0) + k

    def log(self, logger, command: str):
        """Stage times at info, counters at debug."""
        for name, (cpu, wall) in self.seconds.items():
            logger.info("%s stage %s: cpu %.3fs wall %.3fs", command, name, cpu, wall)
        for name, k in self.counts.items():
            logger.debug("%s %s: %d", command, name, k)
