"""Tests for ``python -m repro vet``: PicoVet's whole-program analysis."""

import json
import os
import textwrap

from repro.__main__ import COMMANDS, main
from repro.analysis import astcache
from repro.analysis.lint import lint_paths
from repro.analysis.vet import cmd_vet, vet_paths
from repro.config import KSAN, LOCKDEP

from .vet_fixtures.lockedge_rig import run_rig

FIXTURES = os.path.join(os.path.dirname(__file__), "vet_fixtures")
SLEEPY = os.path.join(FIXTURES, "sleepy_fastpath.py")


# --- the shipped tree --------------------------------------------------------

def test_vet_shipped_tree_is_clean(capsys):
    assert main(["vet"]) == 0
    out = capsys.readouterr().out
    assert "pd-vet: clean" in out
    assert "fast-path entry point(s)" in out


def test_vet_dot_output(capsys):
    assert main(["vet", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "fast_writev" in out


def test_vet_json_output(capsys):
    assert main(["vet", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    writev = [q for q in summary if q.endswith("HFIPicoDriver.fast_writev")]
    assert len(writev) == 1
    entry = summary[writev[0]]
    assert "lwk" in entry["contexts"]
    assert entry["effects"]["offloads"] == []
    assert entry["effects"]["sleeps"] == []
    assert any("sdma_submit" in a for a in entry["effects"]["acquires"])


def test_vet_unknown_option_exits_two(capsys):
    assert main(["vet", "--dotty"]) == 2
    assert "unknown option" in capsys.readouterr().out


def test_vet_help_lists_command(capsys):
    assert main([]) == 0
    assert "vet" in capsys.readouterr().out


# --- the seeded fixture: PD015 catches what PD001 cannot ---------------------

def test_seeded_fixture_caught_by_pd015(capsys):
    assert main(["vet", SLEEPY]) == 1
    out = capsys.readouterr().out
    assert "PD015.2" in out                   # transitive sleep
    assert "PD015.1" in out                   # cross-class offload
    assert "rcu_synchronize" in out
    # the witness chain names both hops to the sleeping callee
    assert "fast_writev -> SleepyPicoDriver._flush -> DrainRing.drain" in out


def test_seeded_fixture_invisible_to_local_lint():
    """The same file is *clean* under the local rules: PD001's self-call
    closure cannot follow the constructor-typed hop into DrainRing, so
    the whole-program pass is the only thing standing between the sin
    and the tree."""
    findings = lint_paths([SLEEPY])
    assert not any(f.code in ("PD001", "PD006") for f in findings)
    assert findings == []


def test_fixture_effects_are_transitive_not_local():
    program, _findings = vet_paths([SLEEPY])
    (entry,) = [q for q in program.functions
                if q.endswith("SleepyPicoDriver.fast_writev")]
    # locally pure ...
    assert not program.functions[entry].effect.sleeps
    # ... transitively sleeping, with the sin attributed to drain()
    transitive = program.effects[entry].sleeps
    assert any(s.what == "rcu_synchronize" for s in transitive)
    assert "lwk" in program.contexts[entry]


# --- suppressions ------------------------------------------------------------

def test_vet_suppression_and_family_prefix(tmp_path, capsys):
    bad = tmp_path / "hushed.py"
    bad.write_text(textwrap.dedent("""\
        class HushedPico:
            def fast_poke(self, task):  # pd-ignore[PD015]
                yield self.lwk.ikc.post(task, None)
        """))
    assert cmd_vet([str(bad)]) == 0
    assert "pd-vet: clean" in capsys.readouterr().out


def test_vet_stale_suppression_reports_pd100(tmp_path, capsys):
    lazy = tmp_path / "lazy.py"
    lazy.write_text(textwrap.dedent("""\
        class InnocentPico:
            def fast_noop(self, task):  # pd-ignore[PD015.5]
                return task
        """))
    assert cmd_vet([str(lazy)]) == 1
    out = capsys.readouterr().out
    assert "PD100" in out and "PD015.5" in out


# --- the crosscheck gate -----------------------------------------------------

def test_crosscheck_unknown_experiment_exits_two(capsys):
    assert cmd_vet(["--crosscheck", "nope"], {}) == 2
    assert "unknown experiment" in capsys.readouterr().out


def test_crosscheck_usage_without_name(capsys):
    assert cmd_vet(["--crosscheck"]) == 2
    assert "usage:" in capsys.readouterr().out


def test_crosscheck_contained_experiment_passes(capsys):
    rc = cmd_vet(["--crosscheck", "contention"], COMMANDS)
    out = capsys.readouterr().out
    assert rc == 0
    assert "every dynamic fact is contained" in out
    assert "heap access pair(s)" in out
    assert KSAN.enabled is False    # restored afterwards
    assert LOCKDEP.enabled is False


def test_crosscheck_names_missing_lock_edge(capsys):
    """The failure path: a dynamic lock edge between classes no shipped
    file mentions must fail containment, naming the edge."""
    rc = cmd_vet(["--crosscheck", "rig"], {"rig": run_rig})
    out = capsys.readouterr().out
    assert rc == 1
    assert "lock edge rig.outer -> rig.inner" in out
    assert "missing from the static lock graph" in out
    assert "rig.outer acquired dynamically but has no static" in out
    assert "3 uncontained fact(s)" in out
    assert KSAN.enabled is False    # restored on failure too
    assert LOCKDEP.enabled is False


# --- the shared AST cache ----------------------------------------------------

def test_astcache_reuses_parses():
    astcache.clear()
    first = astcache.parse_module(SLEEPY)
    hits_before = astcache.STATS["hits"]
    second = astcache.parse_module(SLEEPY)
    assert second is first
    assert astcache.STATS["hits"] == hits_before + 1


def test_astcache_invalidates_on_change(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\n")
    first = astcache.parse_module(str(mod))
    assert first.ok
    mod.write_text("x = 2\n")
    os.utime(mod, (1, 1))  # force a different mtime even on fast writes
    second = astcache.parse_module(str(mod))
    assert second is not first
    assert second.source == "x = 2\n"


def test_astcache_records_syntax_errors(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    module = astcache.parse_module(str(broken))
    assert not module.ok
    assert module.error is not None
    assert module.tree is None
