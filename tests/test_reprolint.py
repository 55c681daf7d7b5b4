"""Unit tests for tools/reprolint.py (determinism/hygiene AST lint)."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _load_reprolint():
    spec = importlib.util.spec_from_file_location(
        "reprolint", REPO / "tools" / "reprolint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reprolint = _load_reprolint()


def _rules(source: str, **kwargs) -> list[str]:
    findings = reprolint.lint_source(source, Path("x.py"), **kwargs)
    return [rule for _line, rule, _msg in findings]


class TestRules:
    def test_bare_except_flagged(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        assert _rules(src) == ["R001"]

    def test_typed_except_ok(self):
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert _rules(src) == []

    def test_mutable_default_list_literal(self):
        assert _rules("def f(a, b=[]):\n    pass\n") == ["R002"]

    def test_mutable_default_dict_constructor(self):
        assert _rules("def f(*, b=dict()):\n    pass\n") == ["R002"]

    def test_none_default_ok(self):
        assert _rules("def f(a, b=None, c=(), d=0):\n    pass\n") == []

    def test_import_random_flagged(self):
        assert _rules("import random\n") == ["R003"]
        assert _rules("from random import choice\n") == ["R003"]

    def test_time_time_flagged_but_perf_counter_ok(self):
        assert _rules("import time\nt = time.time()\n") == ["R003"]
        assert _rules("import time\nt = time.perf_counter()\n") == []

    def test_datetime_now_flagged(self):
        assert _rules("import datetime\nd = datetime.now()\n") == ["R003"]
        assert _rules("from datetime import date\nd = date.today()\n") == ["R003"]

    def test_rng_facade_exempt(self):
        src = "import random\nt = time.time()\n"
        assert _rules(src, rng_exempt=True) == []

    def test_print_flagged_only_in_library(self):
        src = "print('hi')\n"
        assert _rules(src, in_library=True) == ["R004"]
        assert _rules(src, in_library=False) == []

    def test_syntax_error_reported_not_raised(self):
        assert _rules("def broken(:\n") == ["R000"]

    def test_classify_paths(self):
        lib, _, _, _ = reprolint._classify(Path("src/repro/sim/runtime.py"))
        assert lib
        tools, _, _, _ = reprolint._classify(Path("src/repro/tools/hpcview.py"))
        assert not tools
        _, rng, _, _ = reprolint._classify(Path("src/repro/util/rng.py"))
        assert rng
        test, _, _, _ = reprolint._classify(Path("tests/test_x.py"))
        assert not test


class TestR005ObsClockDiscipline:
    """R005: only the clock facade may touch ``time`` inside repro.obs."""

    def test_time_import_flagged_in_obs(self):
        assert _rules("import time\n", obs_restricted=True) == ["R005"]
        assert _rules("from time import perf_counter\n", obs_restricted=True) == [
            "R005"
        ]

    def test_wall_clock_call_flagged_in_obs(self):
        # perf_counter is fine under R003 (it is monotonic, not wall
        # time) but still banned in repro.obs outside the facade.
        src = "t = time.perf_counter()\n"
        assert _rules(src, obs_restricted=True) == ["R005"]
        assert _rules(src, obs_restricted=False) == []

    def test_time_time_gets_both_rules(self):
        rules = _rules("t = time.time()\n", obs_restricted=True)
        assert sorted(rules) == ["R003", "R005"]

    def test_unrestricted_module_unaffected(self):
        assert _rules("import time\nt = time.perf_counter()\n") == []

    def test_classify_obs_paths(self):
        _, _, obs, _ = reprolint._classify(Path("src/repro/obs/trace.py"))
        assert obs
        _, _, clock, _ = reprolint._classify(Path("src/repro/obs/clock.py"))
        assert not clock
        _, _, other, _ = reprolint._classify(Path("src/repro/sim/process.py"))
        assert not other


class TestR006ExitDiscipline:
    """R006: library code may not decide the process exit code."""

    def test_sys_exit_flagged_in_library(self):
        src = "import sys\nsys.exit(1)\n"
        assert _rules(src, in_library=True) == ["R006"]
        assert _rules(src, in_library=False) == []

    def test_raise_systemexit_flagged_in_library(self):
        assert _rules("raise SystemExit(2)\n", in_library=True) == ["R006"]
        assert _rules("raise SystemExit\n", in_library=True) == ["R006"]
        assert _rules("raise SystemExit(2)\n", in_library=False) == []

    def test_other_raise_ok(self):
        src = "raise ValueError('x')\n"
        assert _rules(src, in_library=True) == []

    def test_reraise_ok(self):
        # A bare re-raise inside a handler names no exception: not R006.
        src = "try:\n    pass\nexcept ValueError:\n    raise\n"
        assert _rules(src, in_library=True) == []

    def test_tools_cli_exempt(self):
        lib, _, _, _ = reprolint._classify(Path("src/repro/tools/hpcview.py"))
        assert not lib  # tools are not library code, so R004/R006 skip them


class TestR007LevelConstants:
    """R007: level arrays must be indexed via LVL_*, not magic integers."""

    def test_literal_index_flagged_in_library(self):
        src = "frac = counts[3] + counts[4]\n"
        assert _rules(src, in_library=True) == ["R007", "R007"]

    def test_attribute_access_flagged(self):
        src = "self.level_counts[0] += 1\n"
        assert _rules(src, in_library=True) == ["R007"]
        assert _rules("h.hop_counts[2] += n\n", in_library=True) == ["R007"]

    def test_constant_name_index_ok(self):
        src = "self.level_counts[LVL_L1] += 1\n"
        assert _rules(src, in_library=True) == []

    def test_variable_index_ok(self):
        assert _rules("h.hop_counts[hops] += 1\n", in_library=True) == []

    def test_slices_and_other_arrays_ok(self):
        assert _rules("head = counts[:2]\n", in_library=True) == []
        assert _rules("x = weights[0]\n", in_library=True) == []

    def test_tests_and_tools_exempt(self):
        # Tests pin concrete orderings on purpose; only library code is held
        # to the symbolic-constant rule.
        assert _rules("assert levels[0] == 7\n", in_library=False) == []


class TestR008ThresholdDiscipline:
    """R008: analysis thresholds must come from the formula registry."""

    def test_float_comparison_flagged_when_restricted(self):
        src = "if share >= 0.03:\n    pass\n"
        assert _rules(src, threshold_restricted=True) == ["R008"]
        assert _rules(src, threshold_restricted=False) == []

    def test_float_on_left_side_flagged(self):
        assert _rules("ok = 0.5 < remote\n", threshold_restricted=True) == [
            "R008"
        ]

    def test_int_literal_comparison_ok(self):
        # Loop bounds / emptiness checks against integers stay legal;
        # only float magic thresholds are banned.
        src = "if n > 0:\n    pass\nif count == 2:\n    pass\n"
        assert _rules(src, threshold_restricted=True) == []

    def test_named_constant_comparison_ok(self):
        src = "if share >= MIN_SHARE:\n    pass\n"
        assert _rules(src, threshold_restricted=True) == []

    def test_float_in_non_compare_context_ok(self):
        # Arithmetic with float literals is fine — the rule targets
        # decision thresholds, not math.
        src = "x = value * 0.5\ny = max(0.0, x)\n"
        assert _rules(src, threshold_restricted=True) == []

    def test_classify_threshold_paths(self):
        _, _, _, sc = reprolint._classify(
            Path("src/repro/staticcheck/analyze.py")
        )
        assert sc
        _, _, _, derived = reprolint._classify(
            Path("src/repro/core/derived.py")
        )
        assert derived
        _, _, _, other = reprolint._classify(Path("src/repro/core/views.py"))
        assert not other
        _, _, _, test = reprolint._classify(Path("tests/test_x.py"))
        assert not test


class TestR009ModelLineAnchors:
    """static_model() bodies may not restate source lines as literals."""

    def test_literal_line_in_alloc_flagged(self):
        src = (
            "def static_model(variant='original'):\n"
            "    model.alloc('main', 45, 'x', 64)\n"
        )
        assert _rules(src) == ["R009"]

    def test_literal_line_kwarg_flagged(self):
        src = (
            "def static_model():\n"
            "    model.access(region, line=163, var='x', weight=1.0)\n"
        )
        assert _rules(src) == ["R009"]

    def test_every_declaration_method_covered(self):
        calls = (
            "model.alloc('f', 1, 'x', 8)",
            "model.call('f', 2, 'g')",
            "model.touch('f', 3, 'x')",
            "model.access('f', 4, 'x', weight=1.0)",
            "model.free('f', 5, 'x')",
            "model.parallel_region('f', 6, 'r', 4)",
        )
        body = "".join(f"    {c}\n" for c in calls)
        src = f"def static_model():\n{body}"
        assert _rules(src) == ["R009"] * len(calls)

    def test_named_constant_ok(self):
        src = (
            "L_ALLOC = 45\n"
            "def static_model():\n"
            "    model.alloc('main', L_ALLOC, 'x', 64)\n"
            "    model.alloc('main', L_ALLOC + 1, 'y', 64)\n"
        )
        assert _rules(src) == []

    def test_other_functions_unaffected(self):
        src = "def run(cfg):\n    model.alloc('main', 45, 'x', 64)\n"
        assert _rules(src) == []

    def test_nested_helper_inside_static_model_flagged(self):
        src = (
            "def static_model():\n"
            "    def declare():\n"
            "        model.touch('main', 50, 'x')\n"
            "    declare()\n"
        )
        assert _rules(src) == ["R009"]

    def test_entry_has_no_line_argument(self):
        # model.entry() takes no line; a same-named non-model call with a
        # non-integer second argument is also fine.
        src = (
            "def static_model():\n"
            "    model.entry('main')\n"
            "    registry.call('main', region, 'g')\n"
        )
        assert _rules(src) == []


class TestR010GcPolicy:
    """Only the decoder may change cyclic-GC state inside src/repro."""

    def test_state_changing_calls_flagged_when_restricted(self):
        for name in sorted(reprolint._GC_STATE_CALLS):
            src = f"import gc\ngc.{name}()\n"
            assert _rules(src, gc_restricted=True) == ["R010"], name
            assert _rules(src, gc_restricted=False) == [], name

    def test_from_import_and_alias_flagged(self):
        src = "from gc import disable, isenabled\n"
        assert _rules(src, gc_restricted=True) == ["R010"]
        assert _rules("from gc import *\n", gc_restricted=True) == ["R010"]
        src = "import gc as collector\ncollector.freeze()\n"
        assert _rules(src, gc_restricted=True) == ["R010"]

    def test_read_only_gc_use_ok(self):
        src = (
            "import gc\n"
            "was = gc.isenabled()\n"
            "n = gc.get_count()\n"
            "gc.callbacks.append(hook)\n"
            "x.collect()\n"
        )
        assert _rules(src, gc_restricted=True) == []

    def test_scope_is_library_minus_decoder(self):
        assert reprolint._gc_restricted(Path("src/repro/serve/store.py"))
        assert reprolint._gc_restricted(Path("src/repro/tools/hpcview.py"))
        assert not reprolint._gc_restricted(Path("src/repro/core/profiledb.py"))
        assert not reprolint._gc_restricted(Path("tests/test_profiledb_gc.py"))
        assert not reprolint._gc_restricted(Path("benchmarks/bench_serve.py"))

    def test_lint_paths_applies_scope(self, tmp_path, capsys):
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        body = "import gc\ngc.disable()\n"
        (core / "profiledb.py").write_text(body)
        (core / "merge.py").write_text(body)
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            status = reprolint.main(["src"])
        finally:
            os.chdir(cwd)
        out = capsys.readouterr().out
        assert status == 1
        assert "merge.py:2: R010" in out
        assert "profiledb.py:2" not in out


class TestR011HookLookup:
    """Hook events are called directly inside src/repro, never probed for."""

    def test_optional_event_lookup_flagged_when_restricted(self):
        for src in (
            "handler = getattr(hook, 'on_parallel_begin', None)\n",
            "on_samples = getattr(hook, 'on_samples')\n",
            "if hasattr(hook, 'on_stack_alloc'):\n    pass\n",
        ):
            assert _rules(src, hook_restricted=True) == ["R011"], src
            assert _rules(src, hook_restricted=False) == [], src

    def test_other_lookups_ok(self):
        src = (
            "stats = getattr(hook, 'stats', None)\n"
            "value = getattr(heap, attr)\n"
            "name = getattr(obj, 'one_more', 0)\n"
            "hook.on_sample(process, thread, sample)\n"
        )
        assert _rules(src, hook_restricted=True) == []

    def test_scope_is_all_of_library(self):
        assert reprolint._in_repro(Path("src/repro/pmu/ibs.py"))
        assert reprolint._in_repro(Path("src/repro/tools/hpcview.py"))
        assert not reprolint._in_repro(Path("tests/test_pmu_burst.py"))
        assert not reprolint._in_repro(Path("perfbench/tracer.py"))

    def test_lint_paths_applies_scope(self, tmp_path, capsys):
        sim = tmp_path / "src" / "repro" / "sim"
        sim.mkdir(parents=True)
        (sim / "process.py").write_text("h = getattr(hook, 'on_phase', None)\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_x.py").write_text("h = getattr(hook, 'on_phase', None)\n")
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            status = reprolint.main(["src", "tests"])
        finally:
            os.chdir(cwd)
        out = capsys.readouterr().out
        assert status == 1
        assert "process.py:1: R011" in out
        assert "test_x.py" not in out


class TestUnlintableFiles:
    """Undecodable or unreadable inputs are findings, not crashes."""

    def test_non_utf8_file_reported_with_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "latin1.py"
        bad.write_bytes(b"x = '\xe9'\n")
        status = reprolint.main([str(bad)])
        out = capsys.readouterr().out
        assert status == 1
        assert "R000" in out and "not valid UTF-8" in out

    def test_unparseable_file_reported_with_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        status = reprolint.main([str(bad)])
        out = capsys.readouterr().out
        assert status == 1
        assert "R000" in out and "syntax error" in out

    def test_mixed_tree_reports_bad_and_lints_good(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_bytes(b"\xff\xfe junk")
        (tmp_path / "dirty.py").write_text("try:\n    pass\nexcept:\n    pass\n")
        status = reprolint.main([str(tmp_path)])
        out = capsys.readouterr().out
        assert status == 1
        assert "bad.py:0: R000" in out
        assert "dirty.py:3: R001" in out
        assert "good.py" not in out


class TestRepoIsClean:
    def test_whole_repo_green(self, capsys):
        # Run from the repo root so the default targets resolve.
        cwd = os.getcwd()
        os.chdir(REPO)
        try:
            status = reprolint.main([])
        finally:
            os.chdir(cwd)
        out = capsys.readouterr().out
        assert status == 0, f"reprolint found violations:\n{out}"
