"""In-memory span tracing of the kls layers, installed from outside the library.

The tracer replaces the names each module looks up at call time with timing
wrappers and puts the originals back on ``restore``.  A span records its
name, parent, the solve it belongs to, start and end, and the bytes and flops
computed from the operand shapes.  Spans are recorded only while ``solve`` is
set, and a span whose parent has the same name is not recorded, so the
recursive entry points of one layer count once.

Self time is a span's duration minus the durations of its direct children.
Every span of a solve nests under the solve's root call, so the self times of
one solve add up to the root's wall time.
"""

import functools
import gzip
import json
import sys
from time import perf_counter_ns

import numpy as np

import kls
import kls.dense
import kls.eig
import kls.gmres
import kls.ortho
import kls.problems
import kls.schur

# kls/__init__.py rebinds the attribute ``kls.arnoldi`` to the function
_ARNOLDI = sys.modules["kls.arnoldi"]

_NAME, _PARENT, _SOLVE, _START, _END, _BYTES, _FLOPS, _ERROR = range(8)


def _shape(a):
    s = np.shape(a)
    return s if len(s) == 2 else (s[0], 1)


def _trans_mv_size(B, X, *args, **kwargs):
    (m, k), (_, cols) = _shape(B), _shape(X)
    return 8 * (m * k + m * cols + k * cols), 2 * m * k * cols


def _times_mat_size(Y, B, S, *args, **kwargs):
    (m, k), (_, cols) = _shape(B), _shape(S)
    return 8 * (m * k + k * cols + 2 * m * cols), 2 * m * k * cols


def _apply_size(op, x):
    csr = getattr(op, "csr", None)
    if csr is None:
        return 16 * op.n, 0
    # values, column indices, gathered operand entries, row pointers, result
    return 24 * csr.nnz + 16 * op.n + 8, 2 * csr.nnz


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.solve = None
        self._stack = []
        self._patches = []

    def wrap(self, fn, name, size=None):
        """Return ``fn`` wrapped in a span named ``name``."""
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            solve = tracer.solve
            if solve is None or (stack and spans[stack[-1]][_NAME] == name):
                return fn(*args, **kwargs)
            nbytes, flops = size(*args, **kwargs) if size else (0, 0)
            rec = [name, stack[-1] if stack else -1, solve, 0, 0, nbytes, flops, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                rec[_ERROR] = type(err).__name__
                raise
            finally:
                rec[_END] = perf_counter_ns()
                stack.pop()

        return traced

    def patch(self, owner, attr, name, size=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, size))

    def install(self, bench_module):
        """Wrap every layer boundary of kls and the entry points the
        benchmark module calls by name."""
        kernels = (
            ("mv_trans_mv", "kernels.mv_trans_mv", _trans_mv_size),
            ("mv_times_mat_add_mv", "kernels.mv_times_mat_add_mv", _times_mat_size),
            # kernels.norm2 calls kernels.dot, so only the imported names
            # are wrapped and both count as one dot reduction
            ("dot", "kernels.dot", None),
            ("norm2", "kernels.dot", None),
        )
        for mod in (kls.ortho, _ARNOLDI, kls.eig, kls.dense):
            for attr, name, size in kernels:
                if attr in mod.__dict__:
                    self.patch(mod, attr, name, size)
        for cls in vars(kls.ortho).values():
            if isinstance(cls, type) and issubclass(cls, kls.ortho.QrState):
                for attr in ("push", "finalize"):
                    if attr in cls.__dict__:
                        self.patch(cls, attr, "ortho")
        base = _ARNOLDI._BaseArnoldi
        self.patch(base, "step", "arnoldi.step")
        self.patch(base, "finalize", "arnoldi")
        for mod in (kls.gmres, kls.eig):
            for attr in ("arnoldi", "resume_arnoldi"):
                if attr in mod.__dict__:
                    self.patch(mod, attr, "arnoldi")
        self.patch(kls.problems.LinearOperator, "apply", "problems.apply", _apply_size)
        self.patch(kls.gmres, "backward_error", "gmres.backward_error")
        for attr in (
            "hessenberg_reduce",
            "hessenberg_real_schur",
            "move_blocks_front",
            "schur_eigenvectors",
        ):
            self.patch(kls.eig, attr, "schur")
        self.patch(kls.schur.SchurForm, "blocks", "schur")
        self.patch(kls.schur.SchurForm, "eigenvalues", "schur")
        self.patch(kls.dense, "householder_qr", "dense.householder_qr")
        for attr, name in bench_module.TRACED_ENTRY_POINTS.items():
            self.patch(bench_module, attr, name)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Per solve and span name: self ns, inclusive ns, calls, bytes,
        flops and calls that raised."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child_ns[rec[_PARENT]] += rec[_END] - rec[_START]
        out = {}
        for i, rec in enumerate(spans):
            dur = rec[_END] - rec[_START]
            t = out.setdefault(rec[_SOLVE], {}).setdefault(rec[_NAME], [0, 0, 0, 0, 0, 0])
            t[0] += dur - child_ns[i]
            t[1] += dur
            t[2] += 1
            t[3] += rec[_BYTES]
            t[4] += rec[_FLOPS]
            t[5] += rec[_ERROR] is not None
        return out

    def write(self, path):
        """Write the spans as gzipped JSON lines (times in ns from the first
        span)."""
        t0 = self.spans[0][_START] if self.spans else 0
        with gzip.open(path, "wt", encoding="ascii") as f:
            for i, rec in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": rec[_NAME],
                            "parent": rec[_PARENT],
                            "solve": rec[_SOLVE],
                            "start_ns": rec[_START] - t0,
                            "end_ns": rec[_END] - t0,
                            "bytes": rec[_BYTES],
                            "flops": rec[_FLOPS],
                            "error": rec[_ERROR],
                        }
                    )
                    + "\n"
                )
