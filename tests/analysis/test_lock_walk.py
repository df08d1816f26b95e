"""The one held-lock walk: lint (PD008/PD009), ``lockgraph`` and vet's
held sets must agree on the same source, and the static analyses must
see every declared lock class from a fresh process."""

import ast
import os
import subprocess
import sys
import textwrap

import repro
from repro.analysis.lint import default_lint_root, iter_python_files
from repro.analysis.lockdep import build_static_lock_graph
from repro.analysis.vet_effects import Program

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _views(tmp_path, source):
    """(lint PD008/PD009 findings, lock graph, vet program) for one
    fixture module ``fixture.py``."""
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source))
    graph, findings = build_static_lock_graph([str(path)])
    return findings, graph, Program.build([str(path)])


def _held_at(program, qualname, callee):
    """vet's held set at every call of ``callee`` inside ``qualname``."""
    fn = program.functions[qualname]
    return [site.held for site in fn.calls if site.name == callee]


def test_wait_in_except_after_try_body_acquire_is_held_in_both_views(
        tmp_path):
    findings, _graph, program = _views(tmp_path, """\
        class Fixture:
            def path(self):
                try:
                    yield from self.driver.sdma_lock.acquire(
                        "mckernel", self.aspace)
                    yield from self.engine.submit(group)
                except DriverError:
                    yield self.sim.timeout(1.0)
                    raise
                finally:
                    self.driver.sdma_lock.release("mckernel")
        """)
    assert [f.code for f in findings] == ["PD009"]
    assert "hfi1.sdma_submit" in findings[0].message
    assert _held_at(program, "fixture.py::Fixture.path", "timeout") == [
        ("hfi1.sdma_submit",)]


def test_unresolved_lock_class_is_spelled_the_same_everywhere(tmp_path):
    findings, graph, program = _views(tmp_path, """\
        class Fixture:
            def path(self):
                yield from self.mylock.acquire("linux", self.aspace)
                yield from self.mylock.acquire("linux", self.aspace)
                self.mylock.release("linux")
                self.mylock.release("linux")
        """)
    assert set(graph.sites) == {"mylock"}
    assert graph.ranks["mylock"] is None
    assert [f.code for f in findings] == ["PD008"]
    assert "takes lock class mylock while already holding it" \
        in findings[0].message
    assert program.effects["fixture.py::Fixture.path"].acquires == {"mylock"}


def test_branch_and_loop_acquires_do_not_leak(tmp_path):
    findings, graph, program = _views(tmp_path, """\
        class Fixture:
            def path(self, cond, items):
                if cond:
                    yield from self.driver.sdma_lock.acquire(
                        "linux", self.aspace)
                    self.inside_if()
                for item in items:
                    yield from self.driver.sdma_lock.acquire(
                        "linux", self.aspace)
                    self.inside_for()
                yield self.sim.timeout(1.0)
                self.after()
        """)
    # a leaked if-body acquire would make the loop's acquire a PD008
    # self-deadlock, and either leak would make the wait a PD009
    assert findings == []
    assert graph.edges == {}
    qual = "fixture.py::Fixture.path"
    assert _held_at(program, qual, "inside_if") == [("hfi1.sdma_submit",)]
    assert _held_at(program, qual, "inside_for") == [("hfi1.sdma_submit",)]
    assert _held_at(program, qual, "timeout") == [()]
    assert _held_at(program, qual, "after") == [()]


# --- every lock declaration is visible to a fresh static pass -----------------

def _run(*args):
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    result = subprocess.run([sys.executable, *args], capture_output=True,
                            text=True, env=env, timeout=120)
    return result


def test_fresh_lockgraph_lists_pxd_submit_with_pico_sites():
    result = _run("-m", "repro", "lockgraph")
    assert result.returncode == 0, result.stdout[-2000:]
    lines = result.stdout.splitlines()
    assert any(line.split()[:2] == ["22", "pxd.submit"]
               and "core/pxd_pico" in line for line in lines)
    classes = {}
    current = None
    for line in lines[lines.index("lock classes:") + 1:
                      lines.index("dependency edges:")]:
        if line.startswith("    acquired at "):
            classes[current].append(line)
        else:
            current = line.strip()
            classes[current] = []
    assert "pxd.submit (rank 22)" in classes
    assert any("pxd_pico.py" in site
               for site in classes["pxd.submit (rank 22)"])
    assert not any(name.startswith("submit_lock") for name in classes)


def _declaring_modules():
    """Dotted names of the modules that call ``declare_lock_class`` or
    ``declare_lock_use``, found by scanning the tree's AST."""
    out = set()
    for filename in iter_python_files([default_lint_root()]):
        with open(filename) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", "")
            if name in ("declare_lock_class", "declare_lock_use"):
                rel = os.path.relpath(filename, SRC_ROOT)
                out.add(rel[:-len(".py")].replace(os.sep, "."))
    return out


def test_ensure_declarations_imports_every_declaring_module():
    declaring = _declaring_modules()
    assert {"repro.linux.pxd.driver", "repro.core.pxd_pico"} <= declaring
    result = _run("-c", "import sys\n"
                  "from repro.core import lockclasses\n"
                  "lockclasses.ensure_declarations()\n"
                  "print('\\n'.join(sorted(sys.modules)))")
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = set(result.stdout.split())
    assert declaring - loaded == set()
