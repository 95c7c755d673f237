"""PDG, builder and job-pool tests."""

import pytest

from repro.errors import SchedulerError
from repro.pdg import JobPool, ProgramDependenceGraph, build_pdg

from ..conftest import analyzed


class TestGraph:
    def test_add_and_lookup(self):
        pdg = ProgramDependenceGraph()
        pdg.add_task("t1", {"a"}, {"b"})
        node = pdg.node("t1")
        assert node.reads == {"a"} and node.writes == {"b"}

    def test_duplicate_rejected(self):
        pdg = ProgramDependenceGraph()
        pdg.add_task("t1", set(), set())
        with pytest.raises(SchedulerError):
            pdg.add_task("t1", set(), set())

    def test_edges_and_neighbors(self):
        pdg = ProgramDependenceGraph()
        pdg.add_task("a", set(), {"x"})
        pdg.add_task("b", {"x"}, set())
        pdg.add_edge("a", "b", "flow")
        assert pdg.dependencies_of("b") == {"a"}
        assert pdg.dependents_of("a") == {"b"}
        assert pdg.edge_kinds("a", "b") == "flow"

    def test_cycle_detection(self):
        pdg = ProgramDependenceGraph()
        pdg.add_task("a", set(), set())
        pdg.add_task("b", set(), set())
        pdg.add_edge("a", "b", "flow")
        pdg.add_edge("b", "a", "flow")
        with pytest.raises(SchedulerError, match="cycle") as err:
            pdg.check_acyclic()
        assert "'a'" in str(err.value) and "'b'" in str(err.value)

    def test_batches_are_topological_layers(self):
        pdg = ProgramDependenceGraph()
        for t in "abcd":
            pdg.add_task(t, set(), set())
        pdg.add_edge("a", "c", "flow")
        pdg.add_edge("b", "c", "flow")
        pdg.add_edge("c", "d", "flow")
        assert pdg.batches() == [["a", "b"], ["c"], ["d"]]


def _bicg_like_analyses():
    """Two independent loops + one consumer."""
    a1 = analyzed(
        """
        class T { static void f(double[] p, double[] q, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { q[i] = p[i] * 2.0; }
        } }
        """
    )
    a2 = analyzed(
        """
        class T { static void f(double[] r, double[] s, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { s[i] = r[i] * 3.0; }
        } }
        """
    )
    a3 = analyzed(
        """
        class T { static void f(double[] q, double[] s, double[] out, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { out[i] = q[i] + s[i]; }
        } }
        """
    )
    return a1, a2, a3


class TestBuilder:
    def test_independent_loops_no_edges(self):
        a1, a2, _ = _bicg_like_analyses()
        pdg = build_pdg([("L1", a1), ("L2", a2)])
        assert pdg.batches() == [["L1", "L2"]]

    def test_flow_dependence_orders(self):
        a1, a2, a3 = _bicg_like_analyses()
        pdg = build_pdg([("L1", a1), ("L2", a2), ("L3", a3)])
        assert pdg.batches() == [["L1", "L2"], ["L3"]]
        assert "flow" in pdg.edge_kinds("L1", "L3")

    def test_output_dependence_orders(self):
        a1, _, _ = _bicg_like_analyses()
        pdg = build_pdg([("A", a1), ("B", a1)])
        assert pdg.batches() == [["A"], ["B"]]


class TestJobPool:
    def _pool(self):
        a1, a2, a3 = _bicg_like_analyses()
        return JobPool(build_pdg([("L1", a1), ("L2", a2), ("L3", a3)]))

    def test_pull_then_mark(self):
        pool = self._pool()
        batch = pool.get_tasks()
        assert batch == ["L1", "L2"]
        # L3 not runnable yet
        pool.mark_done(["L1"])
        assert pool.get_tasks() == ["L2"]
        pool.mark_done(["L2"])
        assert pool.get_tasks() == ["L3"]
        pool.mark_done(["L3"])
        assert not pool

    def test_double_mark_rejected(self):
        pool = self._pool()
        pool.mark_done(["L1"])
        with pytest.raises(SchedulerError):
            pool.mark_done(["L1"])


class TestExport:
    def test_dot_structure(self):
        from repro.pdg.export import to_dot

        a1, a2, a3 = _bicg_like_analyses()
        pdg = build_pdg([("L1", a1), ("L2", a2), ("L3", a3)])
        dot = to_dot(pdg, name="bicg")
        assert dot.startswith("digraph bicg {")
        assert '"L1" -> "L3"' in dot
        assert "style=solid" in dot  # flow edge
        assert 'R: p' in dot and 'W: q' in dot
        assert dot.rstrip().endswith("}")

    def test_dot_edge_styles(self):
        from repro.pdg.export import to_dot

        pdg = ProgramDependenceGraph()
        pdg.add_task("a", {"x"}, set())
        pdg.add_task("b", set(), {"x"})
        pdg.add_edge("a", "b", "anti")
        assert "style=dotted" in to_dot(pdg)


class TestStdlibOnly:
    def test_repro_runs_without_networkx(self):
        # the PDG is built on graphlib; blocking networkx must not break
        # import or a compile + run + verify of a Table-II workload
        import os
        import subprocess
        import sys

        import repro

        code = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "from repro import Japonica\n"
            "from repro.workloads import BY_NAME\n"
            "w = BY_NAME['VectorAdd']\n"
            "binds = w.bindings()\n"
            "result = Japonica().compile(w.source).run(\n"
            "    w.method, strategy='japonica', context=w.make_context(),\n"
            "    **binds)\n"
            "w.verify(result, binds)\n"
            "print('verified')\n"
        )
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_root)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "verified"
