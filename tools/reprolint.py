#!/usr/bin/env python
"""reprolint — AST lint for this repo's determinism and hygiene invariants.

The simulator's core guarantee is bit-reproducibility: the same config
must produce byte-identical profiles on every run (that is what the
merge/codec tests pin).  Nondeterminism sneaking into ``src/repro`` —
wall-clock reads, ambient ``random`` — would break that silently, so it
is banned at the AST level rather than hunted in code review.

Rules:
  R001  bare ``except:`` (swallows SystemExit/KeyboardInterrupt and bugs)
  R002  mutable default argument (list/dict/set literals or constructors)
  R003  nondeterminism: ``random`` module, ``time.time``, ``datetime.now``,
        ``datetime.utcnow``, ``date.today`` — anywhere except the seeded
        RNG facade ``src/repro/util/rng.py``
  R004  ``print`` calls inside ``src/repro`` outside ``src/repro/tools``
        (library code must return data; only CLIs talk to stdout)
  R005  wall-clock access inside ``src/repro/obs`` outside the clock
        facade ``src/repro/obs/clock.py`` — the telemetry layer must take
        injected clocks so traces can be made deterministic; any ``time``
        import or ``time.*`` call elsewhere in the package is banned
  R006  ``sys.exit()`` / ``raise SystemExit`` inside ``src/repro`` outside
        ``src/repro/tools`` — library code must raise typed exceptions
        (repro.errors) and leave process exit codes to the CLIs
  R007  integer-literal index into a data-source level array
        (``level_counts``/``levels``/``counts``/``hop_counts``) inside
        ``src/repro`` — use the ``LVL_*`` constants from
        ``repro.machine.hierarchy`` so reordering the hierarchy cannot
        silently skew derived reports
  R008  comparison against a bare float literal inside
        ``src/repro/staticcheck`` or ``src/repro/core/derived.py`` —
        analysis thresholds must be registered formula constants
        (``repro.metrics.boundness``) resolved through the override
        registry, never hand-rolled magic numbers; integer literals
        (loop bounds, counts) stay legal
  R009  integer source-line literal passed to a model declaration call
        (``alloc``/``call``/``touch``/``access``/``free``/
        ``parallel_region``) inside a ``static_model()`` body — line
        anchors must be module-level named constants shared with the
        kernel, so the extraction drift gate
        (``repro.staticcheck.extract``) and the declarations can never
        disagree about where a site lives
  R010  a call that changes cyclic-GC state (``gc.disable``/``enable``/
        ``freeze``/``unfreeze``/``set_threshold``/``collect``, or a
        ``from gc import`` of one of them) inside ``src/repro`` outside
        ``src/repro/core/profiledb.py`` — collector policy is one audited
        decision, the decoder's pause around its acyclic tree build
  R011  optional hook-event lookup — ``getattr(obj, "on_...", ...)`` or
        ``hasattr(obj, "on_...")`` — inside ``src/repro``: every hook
        subclasses ``repro.sim.Hook``, which defines every event, so
        emitters call events directly and never probe for them

Files that cannot be linted are findings, not crashes: a syntax error,
a non-UTF-8 byte sequence, or an unreadable file reports as ``R000``
and exits 1 like any other finding.

Usage: ``python tools/reprolint.py [paths...]`` (default: src tests
benchmarks examples tools).  Prints ``file:line: RULE message`` per
finding; exit status 1 when anything was found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_TARGETS = ("src", "tests", "benchmarks", "examples", "tools")

# R003: calls banned as (module-ish value, attribute) pairs.
_BANNED_CALLS = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

# R007: arrays indexed by data-source level (or NUMA hop distance) whose
# ordering is defined once, by the LVL_* constants in repro.machine.hierarchy.
_LEVEL_ARRAYS = {"level_counts", "levels", "counts", "hop_counts"}

# R009: StaticModel declaration methods whose second positional argument
# (or ``line=`` keyword) is a source line number.
_MODEL_LINE_METHODS = {
    "alloc", "call", "touch", "access", "free", "parallel_region",
}

# R010: ``gc`` functions that change collector state (reads such as
# ``gc.isenabled`` or ``gc.get_count`` stay legal everywhere).
_GC_STATE_CALLS = {
    "disable", "enable", "freeze", "unfreeze", "set_threshold", "collect",
}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray", "defaultdict"}
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(
        self,
        path: Path,
        in_library: bool,
        rng_exempt: bool,
        obs_restricted: bool = False,
        threshold_restricted: bool = False,
        gc_restricted: bool = False,
        hook_restricted: bool = False,
    ) -> None:
        self.path = path
        self.in_library = in_library  # under src/repro but not src/repro/tools
        self.rng_exempt = rng_exempt  # the seeded-RNG facade itself
        # under src/repro/obs but not the clock facade: no wall-clock access
        self.obs_restricted = obs_restricted
        # analysis code whose thresholds must come from the formula registry
        self.threshold_restricted = threshold_restricted
        # library code outside the decoder: no collector-state changes
        self.gc_restricted = gc_restricted
        # library code (tools included): hook events are never looked up
        self.hook_restricted = hook_restricted
        # names bound to the ``gc`` module (``import gc as collector``)
        self._gc_modules = {"gc"}
        # >0 while visiting the body of a ``static_model`` definition
        # (including nested helpers), where R009 applies.
        self._static_model_depth = 0
        self.findings: list[tuple[int, str, str]] = []

    def _add(self, line: int, rule: str, message: str) -> None:
        self.findings.append((line, rule, message))

    # R001 ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(node.lineno, "R001", "bare `except:` — name the exception")
        self.generic_visit(node)

    # R002 ------------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if _is_mutable_default(default):
                self._add(
                    default.lineno, "R002",
                    f"mutable default argument in {node.name}() — use None",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        if node.name == "static_model":
            self._static_model_depth += 1
            self.generic_visit(node)
            self._static_model_depth -= 1
            return
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # R003 / R005 / R010 ------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "gc":
                self._gc_modules.add(alias.asname or "gc")
            root = alias.name.split(".")[0]
            if not self.rng_exempt and root == "random":
                self._add(
                    node.lineno, "R003",
                    "import of `random` — use repro.util.rng (seeded)",
                )
            if self.obs_restricted and root == "time":
                self._add(
                    node.lineno, "R005",
                    "import of `time` in repro.obs — only the clock facade "
                    "(repro/obs/clock.py) may read wall clocks",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            root = node.module.split(".")[0]
            if not self.rng_exempt and root == "random":
                self._add(
                    node.lineno, "R003",
                    "import from `random` — use repro.util.rng (seeded)",
                )
            if self.obs_restricted and root == "time":
                self._add(
                    node.lineno, "R005",
                    "import from `time` in repro.obs — only the clock facade "
                    "(repro/obs/clock.py) may read wall clocks",
                )
            if self.gc_restricted and node.module == "gc":
                for alias in node.names:
                    if alias.name in _GC_STATE_CALLS or alias.name == "*":
                        self._add_gc(node.lineno, f"from gc import {alias.name}")
        self.generic_visit(node)

    def _add_gc(self, line: int, what: str) -> None:
        self._add(
            line, "R010",
            f"{what} changes cyclic-GC state — only the decoder "
            "(repro/core/profiledb.py) may, around its acyclic tree build",
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            not self.rng_exempt
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
        ):
            pair = (func.value.id, func.attr)
            if pair in _BANNED_CALLS:
                self._add(
                    node.lineno, "R003",
                    f"nondeterministic call {pair[0]}.{pair[1]}() — "
                    "pass timestamps/seeds in explicitly",
                )
            if self.obs_restricted and func.value.id == "time":
                self._add(
                    node.lineno, "R005",
                    f"wall-clock call time.{func.attr}() in repro.obs — "
                    "inject a repro.obs.clock.Clock instead",
                )
        # R004
        if (
            self.in_library
            and isinstance(func, ast.Name)
            and func.id == "print"
        ):
            self._add(
                node.lineno, "R004",
                "print() in library code — return data, render in repro.tools",
            )
        # R006 (the call form; `raise SystemExit` is caught in visit_Raise)
        if (
            self.in_library
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "sys"
            and func.attr == "exit"
        ):
            self._add(
                node.lineno, "R006",
                "sys.exit() in library code — raise a repro.errors exception; "
                "only CLIs in repro.tools choose exit codes",
            )
        # R010
        if (
            self.gc_restricted
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._gc_modules
            and func.attr in _GC_STATE_CALLS
        ):
            self._add_gc(node.lineno, f"{func.value.id}.{func.attr}()")
        # R011
        if (
            self.hook_restricted
            and isinstance(func, ast.Name)
            and func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and node.args[1].value.startswith("on_")
        ):
            self._add(
                node.lineno, "R011",
                f"optional hook lookup {func.id}(..., {node.args[1].value!r}) — "
                "every hook subclasses repro.sim.Hook; call the event directly",
            )
        # R009
        if (
            self._static_model_depth
            and isinstance(func, ast.Attribute)
            and func.attr in _MODEL_LINE_METHODS
        ):
            line_arg = None
            if len(node.args) > 1:
                line_arg = node.args[1]
            for kw in node.keywords:
                if kw.arg == "line":
                    line_arg = kw.value
            if (
                isinstance(line_arg, ast.Constant)
                and isinstance(line_arg.value, int)
                and not isinstance(line_arg.value, bool)
            ):
                self._add(
                    line_arg.lineno, "R009",
                    f"hand-maintained line literal {line_arg.value} in "
                    f"static_model() {func.attr}() — use a module-level "
                    "anchor constant shared with the kernel so the "
                    "extraction drift gate pins it",
                )
        self.generic_visit(node)

    # R007 ------------------------------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        base = node.value
        name = None
        if isinstance(base, ast.Name):
            name = base.id
        elif isinstance(base, ast.Attribute):
            name = base.attr
        index = node.slice
        if (
            self.in_library
            and name in _LEVEL_ARRAYS
            and isinstance(index, ast.Constant)
            and isinstance(index.value, int)
            and not isinstance(index.value, bool)
        ):
            self._add(
                node.lineno, "R007",
                f"integer-literal index `{name}[{index.value}]` — use the "
                "LVL_* constants from repro.machine.hierarchy",
            )
        self.generic_visit(node)

    # R008 ------------------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if self.threshold_restricted:
            for side in [node.left, *node.comparators]:
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                ):
                    self._add(
                        side.lineno, "R008",
                        f"comparison against bare float literal {side.value!r} "
                        "— register the threshold as a formula constant in "
                        "repro.metrics.boundness and resolve it through the "
                        "override registry",
                    )
        self.generic_visit(node)

    # R006 ------------------------------------------------------------------
    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if self.in_library and name == "SystemExit":
            self._add(
                node.lineno, "R006",
                "raise SystemExit in library code — raise a repro.errors "
                "exception; only CLIs in repro.tools choose exit codes",
            )
        self.generic_visit(node)


def lint_source(
    source: str,
    path: Path,
    in_library: bool = False,
    rng_exempt: bool = False,
    obs_restricted: bool = False,
    threshold_restricted: bool = False,
    gc_restricted: bool = False,
    hook_restricted: bool = False,
) -> list[tuple[int, str, str]]:
    """Lint one file's source text; returns (line, rule, message) findings."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [(exc.lineno or 0, "R000", f"syntax error: {exc.msg}")]
    visitor = _Visitor(
        path, in_library=in_library, rng_exempt=rng_exempt,
        obs_restricted=obs_restricted,
        threshold_restricted=threshold_restricted,
        gc_restricted=gc_restricted,
        hook_restricted=hook_restricted,
    )
    visitor.visit(tree)
    return sorted(visitor.findings)


def _classify(path: Path) -> tuple[bool, bool, bool, bool]:
    parts = path.as_posix()
    in_repro = "src/repro/" in parts or parts.startswith("src/repro/")
    in_tools = "src/repro/tools/" in parts
    rng_exempt = parts.endswith("repro/util/rng.py")
    in_obs = "src/repro/obs/" in parts
    obs_restricted = in_obs and not parts.endswith("repro/obs/clock.py")
    threshold_restricted = (
        "src/repro/staticcheck/" in parts
        or parts.endswith("repro/core/derived.py")
    )
    return (
        (in_repro and not in_tools),
        rng_exempt,
        obs_restricted,
        threshold_restricted,
    )


def _in_repro(path: Path) -> bool:
    """R011 scope: all of ``src/repro``."""
    parts = path.as_posix()
    return "src/repro/" in parts or parts.startswith("src/repro/")


def _gc_restricted(path: Path) -> bool:
    """R010 scope: all of ``src/repro`` except the decoder's module."""
    return _in_repro(path) and not path.as_posix().endswith("repro/core/profiledb.py")


def lint_paths(targets: list[Path]) -> list[str]:
    reports: list[str] = []
    for target in targets:
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for file in files:
            (
                in_library, rng_exempt, obs_restricted, threshold_restricted,
            ) = _classify(file)
            try:
                source = file.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                reports.append(
                    f"{file}:0: R000 not valid UTF-8 "
                    f"(byte offset {exc.start}: {exc.reason})"
                )
                continue
            except OSError as exc:
                reports.append(f"{file}:0: R000 unreadable: {exc}")
                continue
            findings = lint_source(
                source, file,
                in_library=in_library, rng_exempt=rng_exempt,
                obs_restricted=obs_restricted,
                threshold_restricted=threshold_restricted,
                gc_restricted=_gc_restricted(file),
                hook_restricted=_in_repro(file),
            )
            for line, rule, message in findings:
                reports.append(f"{file}:{line}: {rule} {message}")
    return reports


def main(argv: list[str] | None = None) -> int:
    args = (argv if argv is not None else sys.argv[1:]) or list(DEFAULT_TARGETS)
    targets = []
    for arg in args:
        path = Path(arg)
        if path.exists():
            targets.append(path)
    reports = lint_paths(targets)
    for report in reports:
        print(report)
    if reports:
        print(f"reprolint: {len(reports)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
