"""Data-centric sanitizer & race analysis (``repro.sanitize``).

The subsystem rides the same event stream the profiler uses — allocation
hooks, per-access effective addresses, calling contexts — and turns it
into defect reports instead of cost reports: heap out-of-bounds,
use-after-free, double/invalid free, uninit reads, leaks, data races and
false sharing, each attributed to the variable and full calling contexts
(the paper's attribution shape, applied to correctness).

Activation is a process-construction seam, not an app change::

    from repro.sanitize import sanitizing

    with sanitizing() as session:
        run_app_rank("streamcluster", 0, 2)   # every SimProcess built in
    report = session.report()                 # here is auto-instrumented

:class:`repro.sim.SimProcess` consults ``sys.modules`` for this package
at construction: if it was never imported, no sanitizer code runs at all
and the per-access cost is a single is-None branch in ``Ctx``.  Importing
the package but not entering :func:`sanitizing` is equally inert — the
differential test pins profile output byte-identical in that mode.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.errors import ConfigError
from repro.sanitize.report import (
    ALL_KINDS,
    FAIL_ON_GROUPS,
    AccessContext,
    Finding,
    SanitizerReport,
    VariableRef,
    parse_fail_on,
)
from repro.sanitize.sanitizer import Sanitizer, SanitizerConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess

__all__ = [
    "ALL_KINDS",
    "FAIL_ON_GROUPS",
    "AccessContext",
    "Finding",
    "SanitizeSession",
    "Sanitizer",
    "SanitizerConfig",
    "SanitizerReport",
    "VariableRef",
    "maybe_attach",
    "parse_fail_on",
    "sanitizing",
]


class SanitizeSession:
    """Collects the sanitizers attached to every process built in-scope."""

    def __init__(self, config: SanitizerConfig) -> None:
        self.config = config
        self.sanitizers: list[Sanitizer] = []

    def attach(self, process: "SimProcess") -> Sanitizer:
        sanitizer = Sanitizer(process, self.config).install()
        self.sanitizers.append(sanitizer)
        return sanitizer

    def report(self) -> SanitizerReport:
        findings: list[Finding] = []
        names: list[str] = []
        stats: dict[str, int] = {}
        for sanitizer in self.sanitizers:
            sanitizer.finalize()
            findings.extend(sanitizer.findings)
            names.append(sanitizer.process.name)
            for key, value in sanitizer.stats.items():
                stats[key] = stats.get(key, 0) + value
        return SanitizerReport(
            findings=findings, process_names=tuple(names), stats=stats
        )


_ACTIVE: SanitizeSession | None = None


@contextmanager
def sanitizing(config: SanitizerConfig | None = None) -> Iterator[SanitizeSession]:
    """Activate sanitization for every :class:`SimProcess` built in scope."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ConfigError("sanitizing() sessions do not nest")
    session = SanitizeSession(config if config is not None else SanitizerConfig())
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = None


def maybe_attach(process: "SimProcess") -> None:
    """Called by ``SimProcess.__init__``; attaches only inside a session."""
    if _ACTIVE is not None:
        _ACTIVE.attach(process)
