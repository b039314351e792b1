"""Span tracing of ccckit's layers from outside the program.

``install()`` wraps public functions and family-class methods at the names
where their callers look them up.  Each call becomes a span (name, start,
end, parent span); spans stay in memory until the pass ends.  ``metrics()``
turns them into the per-layer metrics: ``.calls`` counts spans, ``.s`` sums
the outermost span of each name (recursion and nesting counted once), and
``.self_s`` sums duration minus the time covered by child spans.

Other metrics: ``core.checks`` counts ``VerificationReport.record`` calls
that reach a report; ``core.group_ops_per_check`` is family mul + inv + eq
calls per check; ``matrixring.inv.distinct_ratio`` is distinct inverted
matrices per job over inv calls; ``matrixring.entry_bits.max`` is the
largest entry of an inverted matrix, in bits; ``matrixring.share`` and
``matrixring.inv_det.share`` are the shares of job time inside matrixring
spans and inside inv/det spans.  ``matrixring.det`` spans include the
minors ``mat_inv`` takes, so ``det.s`` overlaps ``inv.s``.
"""

from __future__ import annotations

import functools
import time

# Span names whose time counts as matrix-layer time, and the pair the
# inversion share is taken over.
MATRIX_SPANS = ("matrixring.mul", "matrixring.inv", "matrixring.det",
                "matrixring.validate", "matrixring.render")
INV_DET_SPANS = ("matrixring.inv", "matrixring.det")
JOB_SPANS = ("cli.main", "job.seeded")


class Tracer:
    def __init__(self):
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.depth: list[int] = []
        # one [name id, parent index, outermost of its name, start, end] per
        # span, in the order spans start
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: dict[str, int] = {"core.checks": 0, "braid.eq.refused": 0}
        self.maxima: dict[str, int] = {"braid.eq.letters.max": 0, "perm.support.max": 0,
                                       "matrixring.entry_bits.max": 0}
        self.matrices: list = []  # arguments of mat_inv, scanned after each job
        self.inv_distinct = 0
        self.checks_at_job_start = 0

    def _intern(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self.ids[name]

    def wrap(self, name: str, fn, before=None, on_error=None):
        """Return ``fn`` wrapped in a span; ``before(args)`` runs outside it."""
        nid = self._intern(name)
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = [nid, stack[-1], depth[nid] == 0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            depth[nid] += 1
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span[4] = clock()
                stack.pop()
                depth[nid] -= 1

        return functools.update_wrapper(traced, fn)

    def run_job(self, name: str, fn):
        self.checks_at_job_start = self.counts["core.checks"]
        return self.wrap(name, fn)()

    def end_job(self, reported: bool) -> tuple[int, int, int]:
        """Close the last job's counts outside any span and return its
        (check records, inv calls, distinct inverted matrices).

        Check records of a job that wrote no report reach no report, so
        they leave ``core.checks``.  The matrices seen by mat_inv feed the
        distinct count and the entry-size maximum."""
        records = self.counts["core.checks"] - self.checks_at_job_start
        if not reported:
            self.counts["core.checks"] -= records
        distinct = {(m.entries, m.modulus) for m in self.matrices}
        calls = len(self.matrices)
        self.inv_distinct += len(distinct)
        bits = max((abs(e).bit_length() for entries, _ in distinct
                    for row in entries for e in row), default=0)
        key = "matrixring.entry_bits.max"
        self.maxima[key] = max(self.maxima[key], bits)
        self.matrices.clear()
        return records, calls, len(distinct)

    # ------------------------------------------------------------------
    # aggregation

    def span_stats(self):
        """Per name: calls, outermost inclusive seconds, self seconds."""
        dur = [end - start for _, _, _, start, end in self.spans]
        child = [0.0] * len(dur)
        for (_, p, _, _, _), d in zip(self.spans, dur):
            if p >= 0:
                child[p] += d
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for (nid, _, outer, _, _), d, c in zip(self.spans, dur, child):
            s = stats[self.names[nid]]
            s[0] += 1
            if outer:
                s[1] += d
            s[2] += d - c
        return stats, dur

    def job_shares(self, dur):
        """Per job span, in job order: [job seconds, seconds covered by
        outermost matrixring spans, seconds covered by outermost inv/det
        spans]."""
        matrix_ids = {self.ids[x] for x in MATRIX_SPANS if x in self.ids}
        invdet_ids = {self.ids[x] for x in INV_DET_SPANS if x in self.ids}
        job_ids = {self.ids[x] for x in JOB_SPANS if x in self.ids}
        n = len(self.spans)
        job_of = [-1] * n
        in_matrix = [False] * n
        in_invdet = [False] * n
        per_job: dict[int, list[float]] = {}
        for i in range(n):
            nid, p = self.spans[i][0], self.spans[i][1]
            if nid in job_ids:
                job_of[i] = i
                per_job[i] = [dur[i], 0.0, 0.0]
                continue
            if p < 0:
                continue
            job_of[i] = job_of[p]
            in_matrix[i] = in_matrix[p] or nid in matrix_ids
            in_invdet[i] = in_invdet[p] or nid in invdet_ids
            if job_of[i] < 0:
                continue
            if nid in matrix_ids and not in_matrix[p]:
                per_job[job_of[i]][1] += dur[i]
            if nid in invdet_ids and not in_invdet[p]:
                per_job[job_of[i]][2] += dur[i]
        return [per_job[i] for i in sorted(per_job)]

    def metrics(self) -> tuple[dict, list]:
        stats, dur = self.span_stats()
        get = lambda name: stats.get(name, [0, 0.0, 0.0])
        calls = lambda name: get(name)[0]
        incl = lambda name: get(name)[1]
        self_s = lambda name: get(name)[2]
        checks = self.counts["core.checks"]
        group_ops = calls("family.mul") + calls("family.inv") + calls("family.eq")
        inv_calls = calls("matrixring.inv")
        shares = self.job_shares(dur)
        job_s = sum(s[0] for s in shares)
        m = {
            "cli.self_s": self_s("cli.main"),
            "suites.self_s": self_s("suites.run_family"),
            "core.verify.calls": calls("core.verify"),
            "core.verify.self_s": self_s("core.verify"),
            "core.checks": checks,
            "core.power.calls": calls("core.power"),
            "core.group_ops_per_check": group_ops / checks if checks else 0.0,
            "matrixring.mul.calls": calls("matrixring.mul"),
            "matrixring.mul.s": incl("matrixring.mul"),
            "matrixring.inv.calls": inv_calls,
            "matrixring.inv.s": incl("matrixring.inv"),
            "matrixring.inv.distinct_ratio": self.inv_distinct / inv_calls if inv_calls else 0.0,
            "matrixring.det.calls": calls("matrixring.det"),
            "matrixring.det.s": incl("matrixring.det"),
            "matrixring.construct.calls": calls("matrixring.validate"),
            "matrixring.validate.s": incl("matrixring.validate"),
            "matrixring.render.s": incl("matrixring.render"),
            "matrixring.share": sum(s[1] for s in shares) / job_s if job_s else 0.0,
            "matrixring.inv_det.share": sum(s[2] for s in shares) / job_s if job_s else 0.0,
            "braid.eq.calls": calls("braid.eq"),
            "braid.eq.s": incl("braid.eq"),
            "braid.artin_action.calls": calls("braid.artin_action"),
            "braid.artin_action.s": incl("braid.artin_action"),
            "freegroup.aut_compose.calls": calls("freegroup.aut_compose"),
            "freegroup.aut_compose.s": incl("freegroup.aut_compose"),
            "freegroup.aut_validate.s": incl("freegroup.aut_validate"),
            "freegroup.word.calls": calls("freegroup.word_validate"),
            "freegroup.word_validate.s": incl("freegroup.word_validate"),
            "perm.compose.calls": calls("perm.compose"),
            "perm.compose.s": incl("perm.compose"),
            "iet.compose.calls": calls("iet.compose"),
            "iet.compose.s": incl("iet.compose"),
            "iet.inverse.calls": calls("iet.inverse"),
            "iet.validate.s": incl("iet.validate"),
            "plhomeo.compose.calls": calls("plhomeo.compose"),
            "plhomeo.compose.s": incl("plhomeo.compose"),
            "plhomeo.validate.s": incl("plhomeo.validate"),
            "wreath.normalize.calls": calls("wreath.normalize"),
            "wreath.normalize.s": incl("wreath.normalize"),
            "wreath.hom_eval.calls": calls("wreath.hom_eval"),
            "wreath.hom_eval.s": incl("wreath.hom_eval"),
            "wreath.validate_chain.s": incl("wreath.validate_chain"),
            "wreath.check_hom.self_s": self_s("wreath.check_hom"),
            "trace.spans": len(self.spans),
        }
        m.update(self.counts)
        m.update(self.maxima)
        return m, shares

    def write_spans(self, path: str) -> None:
        """One span per line: index, name, start, end, parent index."""
        with open(path, "w") as fh:
            for i, (nid, parent, _, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def install() -> Tracer:
    """Patch ccckit's layers; call after ``import ccckit.cli``."""
    from ccckit import braid, cli, core, freegroup, iet, matrixring, perm, plhomeo, suites, wreath

    tr = Tracer()

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, tr.wrap(name, getattr(owner, attr), **hooks))

    def patch_method(cls, attr, name, **hooks):
        setattr(cls, attr, tr.wrap(name, cls.__dict__[attr], **hooks))

    patch(cli, "run_family", "suites.run_family")

    # core: the engine entry points at every name a caller uses
    for owner in (core, suites, plhomeo):
        for attr in ("verify_ccc", "verify_czc"):
            if hasattr(owner, attr):
                patch(owner, attr, "core.verify")
    patch_method(core.GroupFamily, "power", "core.power")
    for cls in _family_classes(core.GroupFamily):
        for op in ("mul", "inv", "eq", "render"):
            if op in cls.__dict__:
                patch_method(cls, op, f"family.{op}")

    record = core.VerificationReport.record
    chain_depth = tr.depth
    chain_id = tr._intern("wreath.validate_chain")
    counts = tr.counts

    @functools.wraps(record)
    def counted_record(self, *args, **kwargs):
        # validate_chain's report is a precondition check that TowerHom
        # discards; its records never reach a report.
        if chain_depth[chain_id] == 0:
            counts["core.checks"] += 1
        return record(self, *args, **kwargs)

    core.VerificationReport.record = counted_record

    # matrixring
    patch(matrixring, "mat_mul", "matrixring.mul")
    patch(matrixring, "mat_inv", "matrixring.inv",
          before=lambda args: tr.matrices.append(args[0]))
    patch(matrixring, "det", "matrixring.det")
    patch(matrixring, "render_matrix", "matrixring.render")
    patch_method(matrixring.SquareMatrix, "__post_init__", "matrixring.validate")

    # braid
    maxima = tr.maxima

    def eq_letters(args):
        n = max(len(args[0].letters), len(args[1].letters))
        if n > maxima["braid.eq.letters.max"]:
            maxima["braid.eq.letters.max"] = n

    def eq_refused(exc):
        if isinstance(exc, ValueError) and "cap" in str(exc):
            counts["braid.eq.refused"] += 1

    patch(braid, "braids_equal", "braid.eq", before=eq_letters, on_error=eq_refused)
    patch(braid, "artin_action", "braid.artin_action")

    # freegroup
    patch(freegroup, "aut_compose", "freegroup.aut_compose")
    patch_method(freegroup.FreeAutomorphism, "__post_init__", "freegroup.aut_validate")
    patch_method(freegroup.FreeWord, "__post_init__", "freegroup.word_validate")

    # perm
    def support(args):
        n = max(len(args[0].mapping), len(args[1].mapping))
        if n > maxima["perm.support.max"]:
            maxima["perm.support.max"] = n

    patch(perm, "compose", "perm.compose", before=support)

    # iet and plhomeo
    patch(iet, "compose", "iet.compose")
    patch(iet, "inverse", "iet.inverse")
    patch_method(iet.IetMap, "__post_init__", "iet.validate")
    patch(plhomeo, "compose", "plhomeo.compose")
    patch_method(plhomeo.PlMap, "__post_init__", "plhomeo.validate")

    # wreath
    patch_method(wreath.WreathFamily, "normalize", "wreath.normalize")
    patch_method(wreath.TowerHom, "eval", "wreath.hom_eval")
    patch(wreath, "validate_chain", "wreath.validate_chain")
    patch(wreath, "check_hom", "wreath.check_hom")
    return tr


def _family_classes(base) -> list:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out
