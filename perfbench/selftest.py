#!/usr/bin/env python3
"""Quick self-tests of the generator and its reference model.

    python3 perfbench/selftest.py

The first tests use the generator alone.  The last ones run small
products of every workload through ``deltaforge.cli.main`` of this
checkout and require the reference's variant text, or its (code, line)
diagnostics, exactly.
"""

from __future__ import annotations

import argparse
import random
import shutil
import tempfile
import unittest
from pathlib import Path

import gen
import run


class ReferenceModel(unittest.TestCase):
    def test_render_matches_printer_layout(self):
        chart = gen.Chart("T", block=True)
        idle = gen.State("Idle", chart, initial=True)
        active = gen.State("Active", chart, block=True)
        active.children = [gen.State("Busy", active)]
        empty = gen.State("Empty", chart, block=True)
        chart.children = [idle, active, empty,
                          gen.Transition("Idle", "Busy", (True, "c1"), "m1"),
                          gen.Transition("Busy", "Idle", None, "m2"),
                          gen.Transition("Idle", "Idle")]
        self.assertEqual(chart.render(), (
            "statechart T {\n"
            "  initial state Idle;\n"
            "  state Active {\n"
            "    state Busy;\n"
            "  }\n"
            "  state Empty {\n"
            "  }\n"
            "  Idle -> Busy : [!c1] m1();\n"
            "  Busy -> Idle : m2();\n"
            "  Idle -> Idle;\n"
            "}\n"))

    def test_rename_rewrites_references_through_scopes(self):
        chart = gen.Chart("T", block=True)
        a = gen.State("A", chart, block=True)
        b = gen.State("B", a)
        a.children = [b, gen.Transition("B", "A", None, "m1")]
        chart.children = [a, gen.Transition("A", "B", (False, "c1"), "m2"),
                          gen.Transition("Gone", "B")]
        gen.rename(chart, b, "B2")
        self.assertEqual([t.text() for t in a.transitions()],
                         ["B2 -> A : m1();"])
        self.assertEqual([t.text() for t in chart.transitions()],
                         ["A -> B2 : [c1] m2();", "Gone -> B2;"])

    def test_ambiguous_name_is_not_rewritten(self):
        chart = gen.Chart("T", block=True)
        x1 = gen.State("X", chart, block=True)
        y = gen.State("Y", chart, block=True)
        x2 = gen.State("X", y)
        y.children = [x2]
        chart.children = [x1, y, gen.Transition("X", "Y")]
        gen.rename(chart, x1, "Z")
        self.assertEqual(chart.transitions()[0].text(), "X -> Y;")

    def test_token_count(self):
        self.assertEqual(gen.token_count("A -> B : [!c] m();"), 12)
        self.assertEqual(gen.token_count("delta D after A && !B || C {}"),
                         11)


class Generator(unittest.TestCase):
    def test_same_seed_same_products(self):
        for workload in run.WORKLOADS:
            a = run_bench(workload, 7).make_product(1)
            b = run_bench(workload, 7).make_product(1)
            c = run_bench(workload, 8).make_product(1)
            self.assertEqual((a.core_text, a.deltas), (b.core_text, b.deltas))
            self.assertNotEqual(a.deltas, c.deltas)

    def test_one_rename_in_six_operations(self):
        rng = random.Random(3)
        for m in (1, 3, 20, 44, 60):
            kinds = gen._kinds(rng, m)
            self.assertEqual(len(kinds), m)
            self.assertEqual(kinds.count("rename"), (m + 3) // 6)

    def test_reject_diagnostics_point_at_their_operations(self):
        rng = random.Random(5)
        p = gen.reject_product(rng, 0, 40, 30, 3)
        lines = p.deltas[0][1].splitlines()
        self.assertEqual(len(p.diagnostics), 30)
        for code, line in p.diagnostics:
            self.assertIn(code, gen.CC_CODES)
            self.assertRegex(lines[line - 1].strip(),
                             r"^(modify|add|set|remove) ")

    def test_cores_respect_block_cap_and_depth(self):
        rng = random.Random(9)
        chart = gen.make_core(rng, gen.Names(), 300, 3)
        self.assertEqual(len(list(chart.walk())), 300)
        for s in [chart] + list(chart.walk()):
            self.assertLessEqual(len(s.children), 400)
            if s.block:
                self.assertLessEqual(s.depth(), 3)
        big = gen.make_big_core(rng, gen.Names(), 3000)
        self.assertTrue(2900 <= big.size() - 1 <= 3100)
        for s in [big] + list(big.walk()):
            self.assertLessEqual(len(s.children), 400)


class AgainstDeltaforge(unittest.TestCase):
    """Small products of every workload through the CLI of this checkout."""

    SHAPES = {"evolve": (30, 12, 3, 3), "bigmodel": (300, 4),
              "reject": (30, 24, 3)}

    def test_small_products(self):
        for workload, shape in self.SHAPES.items():
            bench = run_bench(workload, 11)
            bench.shapes = (shape,)
            bench.copy_assets()
            bench.setup(1)
            bench.preflight()
            for i in range(4):
                p = bench.make_product(i)
                d, stack = bench.write_product(p)
                for cmd in ("check", "apply"):
                    res = bench.run_command(p, cmd, d, stack)
                    self.assertTrue(res["ok"], (workload, i, cmd, res))


_WORK_DIRS = []


def run_bench(workload, seed):
    """A Bench with its own scratch directory, removed after the tests."""
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    _WORK_DIRS.append(work)
    args = argparse.Namespace(workload=workload, seed=seed, trace=0)
    return run.Bench(args, work, *run._import_deltaforge())


def tearDownModule():
    for work in _WORK_DIRS:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
