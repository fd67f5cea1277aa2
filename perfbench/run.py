#!/usr/bin/env python3
"""Seeded product-line benchmark for deltaforge.

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  The benchmark imports
deltaforge from ``src/`` of that checkout, generates statechart product
lines from the seed (see ``gen.py``) and runs each product in-process
through ``deltaforge.cli.main``, with its input and output files in a
scratch directory under ``.perfbench_work/``: first ``check``, then
``apply``, as a developer or CI job checks deltas and then generates the
variant.  One client, one thread, closed loop: each command starts when
the previous one has returned.  The products are timed in several passes
over the run, and each command's latency is its best over the passes.

Every output is compared with the reference the generator computed on
its own.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see ``README.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ASSETS = SRC / "deltaforge" / "assets"
WORK = ROOT / ".perfbench_work"

# Set-up takes a few milliseconds, so it is repeated: this many times at
# the start, as warm-up, and again before every product in every pass.
# setup_s is the median over the products of the best set-up before each.
SETUP_REPEATS = 11
SETUP_REPEATS_PER_PRODUCT = 3

# Product shapes, run in rounds.  The contents come from the seed; the
# shapes do not, so every seed covers the same sizes.  Within evolve and
# reject the shapes span each workload's ranges (README.md) at about equal
# cost (states x operations x chain length held near constant), so the
# median of a run rests on all its products, not on the few of one middle
# shape.  bigmodel spans 2,000 to 8,000 elements; its median is the 4,000
# one.
#
# The machine's speed changes from one stretch of a run to the next, by up
# to a half for seconds at a time, and a slow stretch only ever adds time.
# So the products are timed in ``passes`` spread over the whole run, and
# each command's latency is its best over the passes.  The first pass
# always runs one round of shapes; more products fill its share of the
# run.  ``probes`` sends the limit probes after the timed loop.
WORKLOADS = {
    # (states, operations per delta, deltas in the chain, nesting depth)
    "evolve": dict(primary="apply", passes=4, probes=True, shapes=(
        (300, 20, 1, 1), (200, 30, 1, 4), (100, 60, 1, 2),
        (150, 40, 1, 3), (120, 50, 1, 1), (250, 24, 1, 2),
        (150, 20, 2, 4), (100, 30, 2, 3), (100, 20, 3, 2))),
    # (elements, operations)
    "bigmodel": dict(primary="apply", passes=3, probes=True, shapes=(
        (4000, 2), (2000, 4), (8000, 1))),
    # (states, operations, nesting depth)
    "reject": dict(primary="check", passes=6, probes=False, shapes=(
        (300, 20, 2), (260, 30, 3), (220, 38, 4), (180, 44, 1),
        (150, 48, 2), (120, 52, 3), (100, 54, 4))),
}

DIAG_RE = re.compile(r"^\S*?:(\d+):\d+ (\w+) ", re.M)


def _import_deltaforge():
    """deltaforge from this checkout's ``src/``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import deltaforge
        from deltaforge import cli
    except ImportError as exc:
        raise SystemExit("perfbench: cannot import deltaforge from %s: %s"
                         % (SRC, exc))
    if SRC.resolve() not in Path(deltaforge.__file__).resolve().parents:
        raise SystemExit("perfbench: deltaforge was imported from %s, not "
                         "from %s" % (deltaforge.__file__, SRC))
    return deltaforge, cli


class Bench:
    def __init__(self, args, work, deltaforge, cli):
        self.args = args
        self.work = work
        self.df, self.cli = deltaforge, cli
        self.tracer = spans.Tracer() if args.trace else None
        self.setup_times = []
        spec = WORKLOADS[args.workload]
        self.primary = spec["primary"]
        self.shapes = spec["shapes"]
        # The traced run makes one pass; its per-layer medians compare
        # traced with untraced times of the same pass.
        self.passes = 1 if args.trace else spec["passes"]

    # -- running the CLI -------------------------------------------------

    def _stack_args(self, core, deltas):
        w = self.work
        out = ["--grammar", str(w / "statechart.dg"),
               "--delta-grammar", str(w / "delta-statechart.dg"),
               "--extend", str(w / "extended-delta-statechart.dg"),
               "--core", str(core)]
        for d in deltas:
            out += ["--delta", str(d)]
        return out

    def invoke(self, argv, traced=False):
        """One ``deltaforge.cli.main`` call; returns (exit code or None if
        it raised, seconds, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                if traced:
                    rc = self.tracer.call("cli.main", self.cli.main, argv)
                else:
                    rc = self.cli.main(argv)
            except Exception as exc:  # the CLI is meant to catch everything
                rc = None
                print("raised %r" % exc, file=err)
            seconds = perf_counter() - start
        return rc, seconds, out.getvalue(), err.getvalue()

    # -- set-up and preflight ----------------------------------------------

    def setup_once(self):
        """Derive the delta grammar from statechart.dg and read and flatten
        the language and delta-language stacks."""
        df, w = self.df, self.work
        call = self.tracer.call if self.tracer else \
            (lambda _name, fn, *a: fn(*a))
        read = lambda name: (w / name).read_text(encoding="utf-8")
        L = call("reader.parse_grammar", df.parse_grammar,
                 read("statechart.dg"), "statechart.dg")
        common = call("reader.parse_grammar", df.parse_grammar,
                      read("delta-common.dg"), "delta-common.dg")
        L_flat = call("model.flatten", df.flatten, [L], L.name)
        derived = call("derive.derive", df.derive, L_flat, L.name, common)
        text = call("derive.render_grammar", df.render_grammar,
                    derived.grammar)
        (w / "delta-statechart.dg").write_text(text, encoding="utf-8")
        dg = call("reader.parse_grammar", df.parse_grammar,
                  read("delta-statechart.dg"), "delta-statechart.dg")
        ext = call("reader.parse_grammar", df.parse_grammar,
                   read("extended-delta-statechart.dg"),
                   "extended-delta-statechart.dg")
        dL_flat = call("model.flatten", df.flatten,
                       [ext, dg, common, L], ext.name)
        return text, L_flat, dL_flat

    def setup(self, repeats):
        """Time ``repeats`` set-ups; each must derive the golden grammar.
        Returns their times."""
        golden = (ASSETS / "delta-statechart.golden.dg").read_text(
            encoding="utf-8")
        first = len(self.setup_times)
        for _ in range(repeats):
            gc.collect()
            if self.tracer:
                self.tracer.product = "setup-%d" % len(self.setup_times)
            start = perf_counter()
            text, self.L_flat, _ = self.setup_once()
            self.setup_times.append(perf_counter() - start)
            if text != golden:
                raise SystemExit("perfbench: derived delta grammar differs "
                                 "from delta-statechart.golden.dg")
        return self.setup_times[first:]

    def copy_assets(self):
        for name in ("statechart.dg", "delta-common.dg",
                     "extended-delta-statechart.dg", "telephone.sc",
                     "voicemail.delta", "telephone-voicemail.sc"):
            shutil.copyfile(ASSETS / name, self.work / name)

    def preflight(self):
        """The case study must check clean and give the expected variant
        (AC-3's comparison: element order does not matter)."""
        w = self.work
        stack = self._stack_args(w / "telephone.sc", [w / "voicemail.delta"])
        rc, _, out, _ = self.invoke(["check"] + stack)
        if rc != 0 or out:
            raise SystemExit("perfbench: preflight check of the case study "
                             "gave exit %s: %s" % (rc, out.strip()))
        variant = w / "preflight.sc"
        rc, _, out, _ = self.invoke(["apply"] + stack +
                                    ["--out", str(variant)])
        if rc != 0 or out or not variant.exists():
            raise SystemExit("perfbench: preflight apply of the case study "
                             "gave exit %s: %s" % (rc, out.strip()))
        parse, node_eq = self.df.parse, self.df.node_eq
        got = parse(self.L_flat, "SCDefinition",
                    variant.read_text(encoding="utf-8"))
        want = parse(self.L_flat, "SCDefinition",
                     (w / "telephone-voicemail.sc").read_text(
                         encoding="utf-8"))
        if not node_eq(got, want, {"elements"}):
            raise SystemExit("perfbench: preflight variant differs from "
                             "telephone-voicemail.sc")

    # -- products ------------------------------------------------------------

    def make_product(self, index):
        shape = self.shapes[index % len(self.shapes)]
        rng = gen.rng_for(self.args.seed, self.args.workload, index)
        make = {"evolve": gen.evolve_product,
                "bigmodel": gen.bigmodel_product,
                "reject": gen.reject_product}[self.args.workload]
        return make(rng, index, *shape)

    def write_product(self, p):
        d = self.work / str(p.pid)
        d.mkdir()
        core = d / "core.sc"
        core.write_text(p.core_text, encoding="utf-8")
        deltas = []
        for name, text in p.deltas:
            path = d / (name + ".delta")
            path.write_text(text, encoding="utf-8")
            deltas.append(path)
        return d, self._stack_args(core, deltas)

    def run_command(self, p, cmd, d, stack, traced=False):
        """Run one command on a product and judge its result."""
        out_file = d / "variant.sc"
        if out_file.exists():
            out_file.unlink()
        argv = [cmd] + stack + (["--out", str(out_file)]
                                if cmd == "apply" else [])
        gc.collect()
        rc, seconds, out, err = self.invoke(argv, traced)
        failed = rc is None or rc == 3 or rc != p.exit_code
        if p.exit_code == 0:
            ok = not failed and out == "" and (
                cmd == "check" or (out_file.exists() and
                                   out_file.read_bytes() ==
                                   p.variant.encode("utf-8")))
        else:
            got = [(code, int(line)) for line, code in DIAG_RE.findall(out)]
            ok = not failed and got == p.diagnostics and \
                not out_file.exists()
        return dict(rc=rc, seconds=seconds, failed=failed, ok=ok,
                    err=err.strip().splitlines()[:1])

    def run(self, seconds):
        """Time the products in ``self.passes`` passes.  The first pass
        generates products until its share of ``seconds`` is up, and
        always completes one round of shapes; each later pass runs the
        same products again, in the same order."""
        records = []
        start = perf_counter()
        index = 0
        while index < len(self.shapes) or \
                perf_counter() - start < seconds / self.passes:
            p = self.make_product(index)
            tokens = gen.token_count(p.core_text) + sum(
                gen.token_count(text) for _, text in p.deltas)
            d, stack = self.write_product(p)
            rec = dict(pid=p.pid, tokens=tokens, product=p)
            self.time_product(rec, d, stack)
            records.append((rec, d, stack))
            index += 1
        for _ in range(1, self.passes):
            for rec, d, stack in records:
                self.time_product(rec, d, stack)
        for _, d, _ in records:
            shutil.rmtree(d)
        return [rec for rec, _, _ in records]

    def time_product(self, rec, d, stack):
        """One pass over one product: a few set-ups, then its commands.
        Over the passes the set-up and each command keep their best time;
        a command counts as failed, or as wrong, if it was so in any
        pass."""
        p = rec["product"]
        rec["setup_s"] = min([rec.get("setup_s", float("inf"))] +
                             self.setup(SETUP_REPEATS_PER_PRODUCT))
        if self.tracer:
            rec.update(self.traced_product(p, d, stack))
            return
        for cmd in ("check", "apply"):
            new = self.run_command(p, cmd, d, stack)
            old = rec.get(cmd)
            if old is not None:
                new.update(
                    seconds=min(old["seconds"], new["seconds"]),
                    failed=old["failed"] or new["failed"],
                    ok=old["ok"] and new["ok"],
                    rc=old["rc"] if old["failed"] else new["rc"],
                    err=old["err"] if old["failed"] or not old["ok"]
                    else new["err"])
            rec[cmd] = new

    def traced_product(self, p, d, stack):
        """The primary command untraced and traced, in turns first: the
        untraced run is the baseline for the tracing overhead."""
        self.tracer.product = p.pid
        first = len(self.tracer.spans)
        if p.pid % 2:
            traced = self.traced_command(p, d, stack)
            plain = self.run_command(p, self.primary, d, stack)
        else:
            plain = self.run_command(p, self.primary, d, stack)
            traced = self.traced_command(p, d, stack)
        layer = count_layers(self.tracer.spans[first:], p, self.df.Node)
        self.tracer.drop_refs(self.tracer.spans[first:])
        return {"plain": plain, "traced": traced, "layer": layer}

    def traced_command(self, p, d, stack):
        self.tracer.install(self.df)
        try:
            return self.run_command(p, self.primary, d, stack, traced=True)
        finally:
            self.tracer.uninstall()

    def probes(self):
        """The fixed limit probes, through apply, outside every latency."""
        out = []
        for p in gen.probe_products():
            d, stack = self.write_product(p)
            rec = self.run_command(p, "apply", d, stack)
            rec.update(pid=p.pid)
            out.append(rec)
            shutil.rmtree(d)
        return out


# ---------------------------------------------------------------------------
# Per-layer counting

def _walk_nodes(node, Node):
    count = 0
    stack = [node]
    while stack:
        n = stack.pop()
        count += 1
        for v in n.slots.values():
            if isinstance(v, list):
                stack.extend(c for c in v if isinstance(c, Node))
            elif isinstance(v, Node):
                stack.append(v)
    return count


def count_layers(product_spans, p, Node):
    """Per-layer totals of one traced command on product ``p``; ``Node``
    is deltaforge's tree node class."""
    children = {}
    for s in product_spans:
        children.setdefault(id(s.parent), []).append(s)
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    engine_runs = {}     # delta name -> check_delta + apply calls
    rebuilds = {}        # delta name -> build_symbols calls under them
    for s in product_spans:
        name = s.name
        if name == "parsing.parse":
            name = "parsing.parse.%s" % ("delta" if s.args[1] == "Delta"
                                         else "core")
            if name == "parsing.parse.core" and s.result is not None:
                add("parsing.nodes", _walk_nodes(s.result, Node))
        add(name + ".s", s.seconds)
        add(name + ".calls", 1)
        if name in ("checker.check_delta", "cli.main"):
            add(name + ".self_s",
                spans.self_seconds(s, children.get(id(s), ())))
        if name == "checker.check_delta" and s.result is not None:
            for d in s.result:
                add("checker.diagnostics." + d.code, 1)
        if name == "applier.pretty_print" and s.result is not None:
            add("applier.output_bytes", len(s.result.encode("utf-8")))
        if name in ("checker.check_delta", "applier.apply"):
            delta = s.args[1].name()
            engine_runs[delta] = engine_runs.get(delta, 0) + 1
            rebuilds[delta] = rebuilds.get(delta, 0) + sum(
                1 for c in children.get(id(s), ())
                if c.name == "checker.build_symbols")
    totals["deltas"] = len(p.deltas)
    totals["ops"] = sum(p.ops)
    totals["engine_runs"] = sum(engine_runs.values())
    totals["per_delta"] = [
        (engine_runs.get(name, 0), rebuilds.get(name, 0), mut)
        for (name, _), mut in zip(p.deltas, p.mutating_ops)]
    return totals


# ---------------------------------------------------------------------------
# Reporting

def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    return statistics.quantiles(values, n=10)[-1]


def _latency_lines(name, values):
    lines = ["%s.p50 %.6f s (n=%d)" % (name, _median(values), len(values))]
    if len(values) >= 100:
        lines.append("%s.p90 %.6f s (n=%d)" % (name, _p90(values),
                                               len(values)))
    else:
        lines.append("%s.p90 not reported: %d products, fewer than 100"
                     % (name, len(values)))
    return lines


def end_to_end(records, probes, peak_rss_mb):
    timed = [r for r in records if not (r["check"]["failed"] or
                                        r["apply"]["failed"])]
    setup_s = _median([r["setup_s"] for r in records])
    check = [r["check"]["seconds"] for r in timed]
    apply_ = [r["apply"]["seconds"] for r in timed]
    tokens = sum(2 * r["tokens"] for r in timed)
    ok = sum(r["check"]["ok"] and r["apply"]["ok"] for r in records)
    failed = len(records) - len(timed)
    probe_failed = sum(p["failed"] or not p["ok"] for p in probes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "variant_s.p50": (_median(apply_), "s"),
        "verdict_s.p50": (_median(check), "s"),
        "tokens_per_s": (tokens / (sum(check) + sum(apply_))
                         if timed else 0.0, "tok/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "output_ok": (ok / len(records), "share"),
    }
    lines = ["%s %.6f %s" % (k, v, u) for k, (v, u) in metrics.items()
             if not k.endswith(".p50")]
    lines += _latency_lines("variant_s", apply_)
    lines += _latency_lines("verdict_s", check)
    lines.append("failed_share %.6f share (%d of %d products, %d of them "
                 "limit probes)" % ((failed + probe_failed) /
                                    (len(records) + len(probes)),
                                    failed + probe_failed,
                                    len(records) + len(probes),
                                    probe_failed))
    for r in records:
        for cmd in ("check", "apply"):
            res = r[cmd]
            if res["failed"] or not res["ok"]:
                lines.append("product %s %s: exit %s, %s %s" % (
                    r["pid"], cmd, res["rc"],
                    "failed" if res["failed"] else "output differs from "
                    "the reference", " ".join(res["err"])))
    for p in probes:
        lines.append("probe %s: exit %s in %.3f s%s %s" % (
            p["pid"], p["rc"], p["seconds"],
            "" if p["ok"] else " (counted as failed)", " ".join(p["err"])))
    correct = ok == len(records) and all(
        p["ok"] or p["rc"] != 0 for p in probes)
    return metrics, lines, correct, failed


PER_LAYER_SPANS = (
    "reader.parse_grammar", "model.flatten", "parsing.parse.core",
    "parsing.parse.delta", "parsing.resync_terminals",
    "checker.build_symbols", "checker.deepcopy", "checker.check_delta",
    "applier.apply", "applier.validate_order", "applier.pretty_print",
    "cli.main")


def per_layer(tracer, records):
    layers = [r["layer"] for r in records]

    def med(key):
        return _median([t.get(key, 0) for t in layers])

    def total(key):
        return sum(t.get(key, 0) for t in layers)

    m = {}
    for name in PER_LAYER_SPANS:
        m[name + ".s"] = (med(name + ".s"), "s")
    for name in ("model.flatten", "parsing.resync_terminals",
                 "checker.build_symbols", "checker.deepcopy",
                 "checker.check_delta", "applier.apply"):
        m[name + ".calls"] = (med(name + ".calls"), "count")
    setup = {}
    for s in tracer.spans:
        if str(s.product).startswith("setup-") and s.name.startswith(
                "derive."):
            setup.setdefault((s.product, s.name), 0.0)
            setup[(s.product, s.name)] += s.seconds
    for name in ("derive.derive", "derive.render_grammar"):
        m[name + ".s"] = (_median([v for (_, n), v in setup.items()
                                   if n == name]), "s")
    core_tokens = sum(gen.token_count(r["product"].core_text)
                      for r in records)
    delta_tokens = sum(gen.token_count(t) for r in records
                       for _, t in r["product"].deltas)
    m["parsing.parse.core.us_per_token"] = (
        1e6 * total("parsing.parse.core.s") / core_tokens, "us/token")
    m["parsing.parse.delta.us_per_token"] = (
        1e6 * total("parsing.parse.delta.s") / delta_tokens, "us/token")
    m["parsing.nodes"] = (med("parsing.nodes"), "count")
    m["checker.build_symbols.per_op"] = (
        total("checker.build_symbols.calls") / total("ops"), "ratio")
    m["checker.build_symbols.per_delta"] = (
        total("checker.build_symbols.calls") / total("deltas"), "ratio")
    m["checker.check_delta.self_s"] = (med("checker.check_delta.self_s"),
                                       "s")
    m["checker.ops"] = (med("ops"), "count")
    for code in gen.CC_CODES:
        key = "checker.diagnostics." + code
        m[key] = (med(key), "count")
    m["applier.output_bytes"] = (med("applier.output_bytes"), "B")
    m["cli.self_s"] = (med("cli.main.self_s"), "s")
    m["cli.engine_runs_per_delta"] = (
        total("engine_runs") / total("deltas"), "ratio")
    plain = _median([r["plain"]["seconds"] for r in records])
    m["trace.overhead"] = (med("cli.main.s") / plain - 1.0, "ratio")
    return m


def exact_counts(workload, records):
    """Check the per-delta counts that repeat exactly at this revision."""
    deltas = [d for r in records for d in r["layer"]["per_delta"]]
    if workload == "reject":
        want_runs = lambda mut: 1
        want_rebuilds = lambda mut: 1
        formula = "1"
    else:
        want_runs = lambda mut: 2
        want_rebuilds = lambda mut: 2 * (1 + mut)
        formula = "2*(1 + mutating ops)"
    runs_ok = sum(runs == want_runs(mut) for runs, _, mut in deltas)
    rebuild_ok = sum(reb == want_rebuilds(mut) for _, reb, mut in deltas)
    return [
        "exact cli.engine_runs_per_delta == %d: %d of %d deltas"
        % (want_runs(0), runs_ok, len(deltas)),
        "exact checker.build_symbols.calls per delta == %s: %d of %d deltas"
        % (formula, rebuild_ok, len(deltas)),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deltaforge, cli = _import_deltaforge()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-%d-" % (args.workload,
                                                     args.seed), dir=WORK))
    bench = Bench(args, work, deltaforge, cli)
    try:
        bench.copy_assets()
        bench.setup(SETUP_REPEATS)
        bench.preflight()
        records = bench.run(args.seconds)
        # The timed products' peak, before the probes can raise it.
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = bench.probes() if WORKLOADS[args.workload]["probes"] \
            else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d "
          "python=%s products=%d" % (
              args.workload, args.seed, args.seconds, args.trace,
              os.cpu_count() or 0, platform.python_version(), len(records)))
    if args.trace:
        bench.tracer.write(WORK / ("spans-%s-seed%d.jsonl"
                                   % (args.workload, args.seed)))
        metrics = per_layer(bench.tracer, records)
        lines = exact_counts(args.workload, records)
        lines += ["%s %.6g %s" % (k, v, u) for k, (v, u) in metrics.items()]
        runs = [(r["plain"], r["traced"]) for r in records]
        correct = all(a["ok"] and b["ok"] for a, b in runs)
        failed = sum(a["failed"] or b["failed"] for a, b in runs)
    else:
        metrics, lines, correct, failed = end_to_end(records, probes,
                                                     peak_rss_mb)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": bool(correct), "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
