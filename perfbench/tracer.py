"""Spans and counters recorded from outside ymrelax.

The tracer wraps public functions of the ymrelax modules at the binding
each caller looks up: a module global for calls inside one module, the
importing module's name for ``from x import y`` bindings, and the
defining module for functions imported at call time.  Every wrapped
function records a span (name, start, end, parent, run id) in memory.
The two hot paths that run millions of times per round, ``Mat``
construction and energy evaluation, only count.

Spans are kept in memory and written out once, by ``dump``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.run_id = 0
        self.spans = []  # [name, start, end, parent index, run id]
        self._stack = []
        self._patches = []
        self.mat_new = [0]
        self.evals = {}  # label -> [calls, infinite results]
        self.extra = {}  # counts read from results (evaluations, sweeps, ...)
        self.mat_new_by_run = {}
        self.evals_by_run = {}
        self.extra_by_run = {}

    # -- recording ---------------------------------------------------------

    def start_run(self, run_id: int):
        """Start fresh counters for a run; earlier runs' records are kept.
        Install the wrappers after this call."""
        self.run_id = run_id
        self.mat_new = self.mat_new_by_run[run_id] = [0]
        self.evals = self.evals_by_run[run_id] = {}
        self.extra = self.extra_by_run[run_id] = {}

    def bump(self, key: str, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount

    def span(self, name: str, fn, on_result=None, on_error=None):
        """Wrap fn so each call records a span; hooks see results and errors."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, time.perf_counter(), None, parent, tracer.run_id]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer._stack.pop()
                rec[2] = time.perf_counter()
            if on_result is not None:
                on_result(tracer, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def testfn(self, fn, label: str):
        """Copy of a TestFn whose evaluate counts calls and +inf results.

        Counts go to the current run, so wrap inside the run."""
        stat = self.evals.setdefault(label, [0, 0])
        inner = fn.evaluate

        def evaluate(a):
            val = inner(a)
            stat[0] += 1
            if val == math.inf:
                stat[1] += 1
            return val

        return dataclasses.replace(fn, evaluate=evaluate)

    # -- installing wrappers -----------------------------------------------

    def patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def install(self):
        """Wrap every traced ymrelax binding; undo with restore()."""
        import ymrelax.certify as certify
        import ymrelax.cli as cli
        import ymrelax.envelope as envelope
        import ymrelax.laminate as laminate
        import ymrelax.measure as measure
        import ymrelax.relax as relax
        from ymrelax.errors import Infeasible
        from ymrelax.matcore import Mat
        from ymrelax.meshdef import MeshDeformation

        count = self.mat_new
        post_init = Mat.__post_init__

        def counted_post_init(mat):
            count[0] += 1
            post_init(mat)

        self.patch(Mat, "__post_init__", counted_post_init)

        def refine_found(tr, out):
            if out[0] is not None:
                tr.bump("relax.refine_atoms.found")

        def lp_error(tr, exc):
            if isinstance(exc, Infeasible):
                tr.bump("relax.lp_weights.infeasible")

        def solved(tr, sol):
            tr.bump("relax.outer_iterations", sol.iterations)
            tr.bump("relax.atoms_final",
                    sum(len(nu.atoms) for nu in sol.field.measures))

        def laminated(tr, est):
            tr.bump("envelope.laminate.evaluations", est.detail["evaluations"])

        def descended(tr, est):
            tr.bump("envelope.fe.sweeps", est.detail["sweeps"])

        def certified_thm3(tr, cert):
            tr.bump("certify.jensen_rows", len(cert.details["jensen_rows"]))

        self.patch(relax, "relax_solve",
                   self.span("relax.relax_solve", relax.relax_solve, solved))
        self.patch(relax, "refine_atoms",
                   self.span("relax.refine_atoms", relax.refine_atoms,
                             refine_found))
        self.patch(relax, "lp_weights",
                   self.span("relax.lp_weights", relax.lp_weights,
                             on_error=lp_error))
        self.patch(envelope, "qinv_oracle_1d",
                   self.span("envelope.qinv_oracle_1d", envelope.qinv_oracle_1d))
        self.patch(envelope, "qinv_laminate_upper",
                   self.span("envelope.qinv_laminate_upper",
                             envelope.qinv_laminate_upper, laminated))
        self.patch(envelope, "qinv_fe_upper",
                   self.span("envelope.qinv_fe_upper", envelope.qinv_fe_upper,
                             descended))
        for meth in ("energy", "cell_gradients"):
            self.patch(MeshDeformation, meth,
                       self.span(f"meshdef.MeshDeformation.{meth}",
                                 getattr(MeshDeformation, meth)))
        pair = self.span("measure.pair", measure.pair)
        self.patch(measure, "pair", pair)
        self.patch(relax, "pair", pair)
        self.patch(certify, "pair_fn", pair)
        classify = self.span("measure.classify", measure.classify)
        self.patch(measure, "classify", classify)
        self.patch(relax, "classify", classify)
        self.patch(certify, "classify", classify)
        self.patch(certify, "check_thm3",
                   self.span("certify.check_thm3", certify.check_thm3,
                             certified_thm3))
        self.patch(certify, "check_thm12",
                   self.span("certify.check_thm12", certify.check_thm12))
        build = self.span("laminate.build_laminate_sequence",
                          laminate.build_laminate_sequence)
        self.patch(laminate, "build_laminate_sequence", build)
        self.patch(cli, "build_laminate_sequence", build)
        for name in ("verify_generation", "boundary_glue"):
            wrapped = self.span(f"laminate.{name}", getattr(laminate, name))
            self.patch(laminate, name, wrapped)
            self.patch(cli, name, wrapped)
        self.patch(cli, "main", self.span("cli.main", cli.main))

        # TestFns the CLI builds from its configs get counting evaluators,
        # labelled by energy name (builtin) or kind (named test function).
        # An extension by orho_extend wraps the raw core, so that each
        # evaluation counts once.
        made = {}  # id(wrapped) -> (wrapped, raw, label)
        builtin_energy, named_testfn, orho_extend = \
            cli.builtin_energy, cli.named_testfn, cli.orho_extend

        def counted(raw, label):
            fn = self.testfn(raw, label)
            made[id(fn)] = (fn, raw, label)
            return fn

        def cli_orho_extend(core, rho, description=""):
            _, raw, label = made.get(id(core), (core, core, "other"))
            return self.testfn(orho_extend(raw, rho, description), label)

        self.patch(cli, "builtin_energy",
                   lambda name, params=None:
                   counted(builtin_energy(name, params), name))
        self.patch(cli, "named_testfn",
                   lambda kind, params=None:
                   counted(named_testfn(kind, params), kind))
        self.patch(cli, "orho_extend", cli_orho_extend)

    # -- reading -----------------------------------------------------------

    def span_stats(self, run_id: int) -> dict:
        """calls, inclusive seconds and self seconds per span name."""
        stats = {}
        child_time = {}
        for rec in self.spans:
            if rec[4] != run_id:
                continue
            dur = rec[2] - rec[1]
            st = stats.setdefault(rec[0], [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur
            if rec[3] >= 0:
                child_time[rec[3]] = child_time.get(rec[3], 0.0) + dur
        for idx, rec in enumerate(self.spans):
            if rec[4] == run_id:
                stats[rec[0]][2] += (rec[2] - rec[1]) - child_time.get(idx, 0.0)
        return stats

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, fh)
