"""Closed-loop measurement, set-up probes, and the span tracer.

A run builds one round of operations from the seed, repeats whole rounds
until ``seconds`` have passed, then checks every output against the oracle
(outside the timed region).  Untraced runs report the end-to-end metrics;
traced runs wrap the program's public functions and report per-layer
metrics derived from the recorded spans.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

#: Cold starts per run, spread over the timed loop; their median is setup_s.
SETUP_REPEATS = 15

WORKLOADS = ("report-graded", "report-converged", "cli-paper")


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

#: (module, function) pairs wrapped in the traced run, in the defining
#: module and in every ritzbounds module that imported the name.
TRACED = (
    ("densela", "sym_eig"),
    ("densela", "gen_sym_eig"),
    ("densela", "singular_values"),
    ("densela", "cholesky_lower"),
    ("densela", "read_matrix_text"),
    ("defect", "ritz"),
    ("defect", "p_diagonal_split"),
    ("defect", "etas_schur"),
    ("defect", "moment_matrices"),
    ("defect", "etas_moments"),
    ("defect", "dl_measure"),
    ("bounds", "build_report"),
    ("bounds", "report_to_json"),
    ("bounds", "report_to_csv"),
    ("models", "fem_assemble"),
    ("models", "periodic_moment_matrix"),
    ("models", "table1_row"),
    ("models", "schrodinger_lambda"),
    ("verify", "run_checks"),
    ("cli", "main"),
)


def _n_cubed(args):
    a = args[0]
    n = a.n if hasattr(a, "n") else np.shape(a)[0]
    return n**3


WORK = {"sym_eig": _n_cubed, "gen_sym_eig": _n_cubed}


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, work, raised].

    ``raised`` marks the innermost traced call an exception came from; the
    calls it propagates through are not marked.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._last_exc = None
        self._undo = []

    def _wrap(self, name, fn):
        work = WORK.get(name.rsplit(".", 1)[1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op, work(args) if work else 0, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_exc:
                    span[6] = True
                    self._last_exc = exc
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        import ritzbounds.cli  # noqa: F401  (loads every module of the package)
        from ritzbounds.densela import SymmetricMatrix

        modules = [m for k, m in sys.modules.items() if k == "ritzbounds" or k.startswith("ritzbounds.")]
        for modname, fname in TRACED:
            original = getattr(sys.modules[f"ritzbounds.{modname}"], fname)
            wrapped = self._wrap(f"{modname}.{fname}", original)
            for mod in modules:
                if mod.__dict__.get(fname) is original:
                    setattr(mod, fname, wrapped)
                    self._undo.append((mod, fname, original))
        self._undo.append((SymmetricMatrix, "__post_init__", SymmetricMatrix.__post_init__))
        SymmetricMatrix.__post_init__ = self._wrap("densela.admit", SymmetricMatrix.__post_init__)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def write(self, path: Path):
        keys = ("name", "start", "end", "parent", "op", "work", "raised")
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


#: Per-layer metrics: name, unit, better.  Values are per attempted
#: operation (``s`` inclusive seconds, ``self_s`` minus traced children).
LAYER_METRICS = (
    ("densela.sym_eig.s", "s/op", "lower"),
    ("densela.sym_eig.calls", "calls/op", "lower"),
    ("densela.sym_eig.work_n3", "n3/op", "lower"),
    ("densela.gen_sym_eig.s", "s/op", "lower"),
    ("densela.gen_sym_eig.calls", "calls/op", "lower"),
    ("densela.gen_sym_eig.work_n3", "n3/op", "lower"),
    ("densela.singular_values.s", "s/op", "lower"),
    ("densela.singular_values.calls", "calls/op", "lower"),
    ("densela.cholesky_lower.s", "s/op", "lower"),
    ("densela.cholesky_lower.calls", "calls/op", "lower"),
    ("densela.read_matrix_text.s", "s/op", "lower"),
    ("densela.admit_s", "s/op", "lower"),
    ("defect.ritz.calls", "calls/op", "lower"),
    ("defect.p_diagonal_split.s", "s/op", "lower"),
    ("defect.p_diagonal_split.self_s", "s/op", "lower"),
    ("defect.etas_schur.s", "s/op", "lower"),
    ("defect.moment_matrices.s", "s/op", "lower"),
    ("defect.etas_moments.s", "s/op", "lower"),
    ("defect.dl_measure.s", "s/op", "lower"),
    ("defect.failed", "exc/op", "lower"),
    ("bounds.build_report.s", "s/op", "lower"),
    ("bounds.build_report.self_s", "s/op", "lower"),
    ("bounds.lambda_ref_s", "s/op", "lower"),
    ("bounds.serialize_s", "s/op", "lower"),
    ("bounds.failed", "exc/op", "lower"),
    ("models.fem_assemble.s", "s/op", "lower"),
    ("models.periodic_moment_matrix.s", "s/op", "lower"),
    ("models.table1_row.self_s", "s/op", "lower"),
    ("models.schrodinger_lambda.s", "s/op", "lower"),
    ("verify.run_checks.s", "s/op", "lower"),
    ("cli.start_s", "s", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
)


def layer_values(spans, attempted, cli_start, ops_per_s) -> dict:
    """Per-layer metric values from the spans of the operations; spans
    recorded while the round was built (op id -1) are left out."""
    incl, selfs, calls, work, raised = Counter(), Counter(), Counter(), Counter(), Counter()
    lambda_ref = 0.0
    for name, start, end, parent, op, w, exc in spans:
        if op < 0:
            continue
        dur = end - start
        incl[name] += dur
        selfs[name] += dur
        calls[name] += 1
        work[name] += w
        raised[name.split(".")[0]] += exc
        if parent >= 0:
            selfs[spans[parent][0]] -= dur
            if name == "densela.sym_eig" and spans[parent][0] == "bounds.build_report":
                lambda_ref += dur
    derived = {
        "densela.admit_s": incl["densela.admit"],
        "bounds.lambda_ref_s": lambda_ref,
        "bounds.serialize_s": incl["bounds.report_to_json"] + incl["bounds.report_to_csv"],
        "defect.failed": raised["defect"],
        "bounds.failed": raised["bounds"],
    }
    values = {}
    for metric, _, _ in LAYER_METRICS:
        if metric == "cli.start_s":
            values[metric] = cli_start
        elif metric == "trace.ops_per_s":
            values[metric] = ops_per_s
        elif metric in derived:
            values[metric] = derived[metric] / attempted
        else:
            fn, stat = metric.rsplit(".", 1)
            table = {"s": incl, "self_s": selfs, "calls": calls, "work_n3": work}[stat]
            values[metric] = table[fn] / attempted
    return values


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def cold_start(argv, ready_line):
    """Wall time of one fresh process, from spawn to exit (or to its
    ``ready`` line)."""
    t0 = perf_counter()
    with subprocess.Popen(argv, env=workloads.CHILD_ENV, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline() if ready_line else ""
        t = perf_counter() - t0
        p.stdout.read()
        code = p.wait()
    if not ready_line:
        t = perf_counter() - t0
    if code != 0 or (ready_line and line.strip() != "ready"):
        raise RuntimeError(f"set-up probe {argv} failed with exit code {code}")
    return t


def closed_loop(ops, seconds, tracer=None, probe=None, repeats=0):
    """Run whole rounds until their time adds up to ``seconds``.

    ``probe`` (a callable returning seconds) is called ``repeats`` times,
    between operations at evenly spaced points of the run, so set-up is
    sampled over the same stretch of time as the operations; its time is
    left out of the rounds.  Returns one record (slot, seconds, output,
    error message) per op, the duration of each round and the probe times.
    Repeated outputs share one copy and errors are kept as text, so memory
    does not grow with the number of rounds."""
    records, rounds, seen, probes = [], [], {}, []
    busy = 0.0
    while True:
        round_start, probing = perf_counter(), 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(records)
            t0 = perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            if err is None:
                out = seen.setdefault((i, out), out)
            records.append((i, elapsed, out, err))
            due = (len(probes) + 0.5) * seconds / max(repeats, 1)
            if len(probes) < repeats and busy + perf_counter() - round_start - probing >= due:
                t0 = perf_counter()
                probes.append(probe())
                probing += perf_counter() - t0
        rounds.append(perf_counter() - round_start - probing)
        busy += rounds[-1]
        if busy >= seconds:
            break
    while len(probes) < repeats:
        probes.append(probe())
    return records, rounds, probes


def judge(ops, records):
    """Check every output; returns (failed, correct, per-op value digits,
    per-op defect digits, failure messages).  Each operation contributes
    the mean digits of its outputs of a kind; a failed one contributes 0."""
    refs, verdicts = {}, {}
    failed, correct = 0, True
    value, defect, messages = [], [], Counter()
    for i, _, out, err in records:
        op = ops[i]
        if err is None:
            key = (i, out)
            if key not in verdicts:
                if i not in refs:
                    refs[i] = op.reference()
                try:
                    verdicts[key] = op.check(out, refs[i])
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    verdicts[key] = workloads.Verdict([f"unreadable output: {exc!r}"])
            verdict = verdicts[key]
            if not verdict.violations:
                value += [statistics.fmean(verdict.value_digits)] if op.has_values else []
                defect += [statistics.fmean(verdict.defect_digits)] if op.has_defects else []
                continue
            correct = False
            messages[f"{op.label}: check failed: {'; '.join(verdict.violations[:3])}"] += 1
        else:
            messages[f"{op.label}: {err}"] += 1
        failed += 1
        value += [0.0] if op.has_values else []
        defect += [0.0] if op.has_defects else []
    return failed, correct, value, defect, messages


def build_ops(name, seed, workdir, in_process, tiny):
    if name == "report-graded":
        return workloads.report_graded(seed, tiny)
    if name == "report-converged":
        return workloads.report_converged(seed, tiny)
    return workloads.cli_paper(seed, workdir, in_process=in_process, tiny=tiny), None


def setup_probe(arrays, workdir):
    """The cold start that set-up time measures, after one untimed start
    that fills the bytecode cache."""
    if arrays is None:
        argv, ready_line = workloads.CLI + ["--version"], False
    else:
        path = workdir / "inputs.npz"
        np.savez(path, **{f"{k}{i}": a for i, pair in enumerate(arrays) for k, a in zip("hb", pair)})
        argv, ready_line = [sys.executable, str(BENCH / "probe.py"), str(path)], True
    cold_start(argv, ready_line)
    return functools.partial(cold_start, argv, ready_line)


def run_workload(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns the result object printed by run.py."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    repeats = 1 if tiny else SETUP_REPEATS
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if tracer is not None:
            tracer.install()
        try:
            ops, arrays = build_ops(name, seed, workdir, in_process=trace, tiny=tiny)
            probe = None
            if not trace or arrays is None:
                probe = setup_probe(arrays, workdir)
            records, rounds, probes = closed_loop(ops, seconds, tracer, probe, repeats if probe else 0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        usage = resource.RUSAGE_SELF if arrays is not None else resource.RUSAGE_CHILDREN
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        failed, correct, value, defect, messages = judge(ops, records)

    for message, count in sorted(messages.items()):
        print(f"{name}: {count} x {message}", file=sys.stderr)
    attempted = len(records)
    setup = statistics.median(probes) if probes else None
    ops_per_s = len(ops) / statistics.median(rounds)
    if tracer is not None:
        tracer.write(OUT / f"trace-{name}-{seed}.jsonl")
        values = layer_values(tracer.spans, attempted, setup or 0.0, ops_per_s)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(r[1] for r in records), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "value_digits": {"value": statistics.fmean(value), "unit": "digits"},
            "defect_digits": {"value": statistics.fmean(defect), "unit": "digits"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
