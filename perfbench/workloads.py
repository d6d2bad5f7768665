"""The benchmark workloads: seeded inputs, one solve, and its output check.

``QrTall``, ``QrKappa``, ``GmresCd`` and ``KsEig`` are the parts; the two
workloads a run can name, ``Qr`` and ``Krylov``, each run two of them in
one solve, so that each gets the whole measuring time of a run.

Every workload calls the public kls API.  ``solve`` returns a list of
``(ledger, result)`` pairs, one per library call, each with a fresh
``SyncLedger``; ``check`` returns the list of problems it found (empty when
the output is correct).  The checks use the library's own oracles.
"""

import numpy as np

from kls import (
    CsrOperator,
    GmresConfig,
    KrylovSchurConfig,
    ManteuffelSpec,
    SyncLedger,
    assert_matches,
    eig_diagnostics,
    gmres_solve,
    krylov_schur_run,
    loss_of_orthogonality,
    manteuffel_build,
    manteuffel_eigenvalues,
    match_eigenvalues,
    predicted_counts,
    qr_factorize,
    representation_error_qr,
    synthetic_kappa,
)

EPS = float(np.finfo(np.float64).eps)

#: names this module calls that the traced run wraps, with their span names
TRACED_ENTRY_POINTS = {
    "qr_factorize": "ortho",
    "gmres_solve": "gmres",
    "krylov_schur_run": "eig",
    "manteuffel_build": "problems.generate",
    "manteuffel_eigenvalues": "problems.generate",
    "synthetic_kappa": "problems.generate",
}


#: exact QR reductions for n columns; ``assert_matches`` allows dcgs2 up to
#: two more, but its first push costs none and its flush two, so n + 1
QR_REDUCTIONS = {
    "cgs": lambda n: 2 * n,
    "cgs2": lambda n: 3 * n,
    "icwy-mgs": lambda n: n,
    "dcgs2": lambda n: n + 1,
}


def _blocked_representation_error(a, q, r, block=10):
    """``representation_error_qr`` over column blocks, so that the check's
    temporaries stay small and the process's peak memory is the solve's."""
    num = den = 0.0
    for j in range(0, a.shape[1], block):
        cols = slice(j, j + block)
        norm = float(np.linalg.norm(a[:, cols]))
        num += (representation_error_qr(a[:, cols], q, r[:, cols]) * norm) ** 2
        den += norm**2
    return float(np.sqrt(num / den)) if den else 0.0


def _qr_problems(scheme, a, q, r, ledger):
    """The acceptance test's QR oracle, plus the exact reduction count:
    ledger within its prediction, and loss of orthogonality and
    representation error within 100 eps n."""
    n = a.shape[1]
    ceiling = 100 * EPS * n
    out = []
    report = assert_matches(ledger, predicted_counts(scheme, n))
    if not report.passed or ledger.reductions != QR_REDUCTIONS[scheme](n):
        out.append(f"ledger {report}, exact count {QR_REDUCTIONS[scheme](n)}")
    loo = loss_of_orthogonality(q)
    if not loo <= ceiling:
        out.append(f"{scheme} {a.shape}: loss of orthogonality {loo:.3e} > {ceiling:.3e}")
    rre = _blocked_representation_error(a, q, r)
    if not rre <= ceiling:
        out.append(f"{scheme} {a.shape}: representation error {rre:.3e} > {ceiling:.3e}")
    return out


class QrTall:
    """QR of one tall standard-normal panel; kernels and ortho do all work."""

    def __init__(self, m=100_000, n=100):
        self.m, self.n = m, n

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        return {"a": rng.standard_normal((self.m, self.n))}

    def largest_operand_bytes(self, inputs):
        return inputs["a"].nbytes

    def per_solve(self, inputs, index):
        return inputs

    def solve(self, scheme, args):
        ledger = SyncLedger()
        q, r = qr_factorize(args["a"], scheme, ledger=ledger)
        return [(ledger, (args["a"], q, r))]

    def check(self, scheme, args, out):
        return [p for ledger, (a, q, r) in out for p in _qr_problems(scheme, a, q, r, ledger)]

    def counts(self, out):
        return {}


class QrKappa(QrTall):
    """The paper's stability sweep: one solve factorizes one synthetic matrix
    per condition number."""

    #: cgs and icwy-mgs lose orthogonality past the check's ceiling at 1e12
    schemes = ("cgs2", "dcgs2")

    def __init__(self, m=20_000, n=50, kappas=(1e0, 1e4, 1e8, 1e12)):
        super().__init__(m, n)
        self.kappas = kappas

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31 - 2, size=len(self.kappas))
        return {
            "matrices": [
                synthetic_kappa(self.m, self.n, kappa, int(s))
                for kappa, s in zip(self.kappas, seeds)
            ]
        }

    def largest_operand_bytes(self, inputs):
        return max(a.nbytes for a in inputs["matrices"])

    def solve(self, scheme, args):
        out = []
        for a in args["matrices"]:
            ledger = SyncLedger()
            q, r = qr_factorize(a, scheme, ledger=ledger)
            out.append((ledger, (a, q, r)))
        return out


class GmresCd:
    """Restarted GMRES on the CSR convection-diffusion operator, b = A x."""

    def __init__(self, k=200, iters=300, restart=30):
        self.spec = ManteuffelSpec(k=k)
        self.cfg = {"max_iters": iters, "restart": restart, "rtol": 0.0}

    def setup(self, seed):
        csr = manteuffel_build(self.spec)
        x = np.random.default_rng(seed).standard_normal(csr.nrows)
        return {"csr": csr, "b": csr.matvec(x)}

    def largest_operand_bytes(self, inputs):
        basis = inputs["csr"].nrows * (self.cfg["restart"] + 1) * 8
        return max(basis, inputs["csr"].data.nbytes)

    def per_solve(self, inputs, index):
        return {"op": CsrOperator(inputs["csr"]), "csr": inputs["csr"], "b": inputs["b"]}

    def solve(self, scheme, args):
        ledger = SyncLedger()
        cfg = GmresConfig(scheme=scheme, **self.cfg)
        return [(ledger, gmres_solve(args["op"], args["b"], cfg, ledger=ledger))]

    def predicted_reductions(self, scheme):
        """Closed forms: cgs2 spends 3 reductions per iteration; dcgs2 one
        per iteration plus 2 to flush each restart cycle."""
        iters, restart = self.cfg["max_iters"], self.cfg["restart"]
        if scheme == "cgs2":
            return 3 * iters
        if scheme == "dcgs2":
            cycles = -(-iters // restart)
            return iters + 2 * cycles
        raise ValueError(f"no GMRES closed form for {scheme!r}")

    def check(self, scheme, args, out):
        ((ledger, res),) = out
        problems = []
        want = self.predicted_reductions(scheme)
        if ledger.reductions != want:
            problems.append(f"{scheme}: {ledger.reductions} reductions, closed form {want}")
        hist = res.residual_history
        if res.iterations != self.cfg["max_iters"] or len(hist) != res.iterations:
            problems.append(f"{scheme}: {res.iterations} iterations, {len(hist)} residuals")
        if not np.all(np.isfinite(hist)):
            problems.append(f"{scheme}: non-finite residual history")
        elif len(hist):
            b = args["b"]
            true = float(np.linalg.norm(b - args["csr"].matvec(res.x)) / np.linalg.norm(b))
            if not abs(true - hist[-1]) <= 1e-6 * hist[-1]:
                problems.append(
                    f"{scheme}: true residual {true:.6e} against recorded {hist[-1]:.6e}"
                )
        return problems

    def counts(self, out):
        return {"gmres.iterations": out[0][1].iterations}


class KsEig:
    """Krylov-Schur on a small convection-diffusion operator with its exact
    spectrum; each solve starts from its own seeded vector.

    The start vector sets the restart path, and with it the reductions and
    flops of a solve, by a few percent.  Ten restarts keep a solve short
    enough that a run takes its median over many start vectors.
    """

    def __init__(self, k=10, max_basis=50, tol=1e-7, max_restarts=10):
        self.spec = ManteuffelSpec(k=k)
        self.cfg = {"max_basis": max_basis, "tol": tol, "max_restarts": max_restarts}

    def setup(self, seed):
        csr = manteuffel_build(self.spec)
        return {
            "csr": csr,
            "seed": seed,
            "table": manteuffel_eigenvalues(self.spec),
            "cond_eig_max": eig_diagnostics(CsrOperator(csr))["cond_eig_max"],
        }

    def largest_operand_bytes(self, inputs):
        return inputs["csr"].nrows * (self.cfg["max_basis"] + 1) * 8

    def per_solve(self, inputs, index):
        # the first solve starts from the workload seed itself; later ones
        # from seeds derived from it, so the median spans several restart
        # paths instead of repeating one
        seed = inputs["seed"]
        if index:
            seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        return dict(inputs, op=CsrOperator(inputs["csr"]), start=seed)

    def solve(self, scheme, args):
        ledger = SyncLedger()
        cfg = KrylovSchurConfig(scheme=scheme, **self.cfg)
        res = krylov_schur_run(args["op"], cfg, args["start"], ledger=ledger, exact=args["table"])
        return [(ledger, res)]

    def check(self, scheme, args, out):
        """Every locked value passed the residual test and lies within its
        first-order forward error bound, cond_eig_max * tol, of an exact
        eigenvalue that still has multiplicity left."""
        ((_, res),) = out
        tol = self.cfg["tol"]
        problems = []
        if res.invariant_dim < 1:
            problems.append(f"{scheme}: nothing locked")
        if res.over_multiplicity:
            problems.append(f"{scheme}: solver flagged over-multiplicity")
        if not np.all(res.residuals < tol):
            problems.append(f"{scheme}: locked residual {np.max(res.residuals):.3e} >= {tol}")
        forward_tol = args["cond_eig_max"] * tol
        rep = match_eigenvalues(res.values.real, args["table"], forward_tol)
        if rep.n_matched != len(res.values) or rep.over_multiplicity:
            problems.append(
                f"{scheme}: {rep.n_matched}/{len(res.values)} values within "
                f"{forward_tol:.2e} of the exact spectrum"
            )
        return problems

    def counts(self, out):
        res = out[0][1]
        return {"eig.restarts": res.restarts, "eig.locked": res.invariant_dim}


class Qr:
    """Both QR parts in one workload: one solve factorizes the ``QrTall``
    panel and, for the ``QrKappa`` schemes, the four sweep matrices, each
    call with its own ledger and each factorization checked with the QR
    oracle.  cgs and icwy-mgs factorize the tall panel only.
    """

    name = "qr"
    schemes = ("cgs", "cgs2", "icwy-mgs", "dcgs2")

    def __init__(self, tall=None, kappa=None):
        self.tall = QrTall(**(tall or {}))
        self.kappa = QrKappa(**(kappa or {}))

    def setup(self, seed):
        return {"tall": self.tall.setup(seed), "kappa": self.kappa.setup(seed)}

    def largest_operand_bytes(self, inputs):
        return max(
            self.tall.largest_operand_bytes(inputs["tall"]),
            self.kappa.largest_operand_bytes(inputs["kappa"]),
        )

    def per_solve(self, inputs, index):
        return inputs

    def solve(self, scheme, args):
        out = self.tall.solve(scheme, args["tall"])
        if scheme in self.kappa.schemes:
            out += self.kappa.solve(scheme, args["kappa"])
        return out

    def check(self, scheme, args, out):
        return self.tall.check(scheme, args, out)

    def counts(self, out):
        return {}


class Krylov:
    """Both Krylov solvers in one workload: one solve runs a ``GmresCd``
    solve and then a ``KsEig`` solve with the same scheme, each with its own
    ledger and operator, and each part is checked with its own oracle.
    """

    name = "krylov"
    schemes = ("cgs2", "dcgs2")

    def __init__(self, gmres=None, eig=None):
        self.gmres = GmresCd(**(gmres or {}))
        self.eig = KsEig(**(eig or {}))

    def setup(self, seed):
        return {"gmres": self.gmres.setup(seed), "eig": self.eig.setup(seed)}

    def largest_operand_bytes(self, inputs):
        return max(
            self.gmres.largest_operand_bytes(inputs["gmres"]),
            self.eig.largest_operand_bytes(inputs["eig"]),
        )

    def per_solve(self, inputs, index):
        return {
            "gmres": self.gmres.per_solve(inputs["gmres"], index),
            "eig": self.eig.per_solve(inputs["eig"], index),
        }

    def solve(self, scheme, args):
        return self.gmres.solve(scheme, args["gmres"]) + self.eig.solve(scheme, args["eig"])

    def check(self, scheme, args, out):
        return self.gmres.check(scheme, args["gmres"], out[:1]) + self.eig.check(
            scheme, args["eig"], out[1:]
        )

    def counts(self, out):
        return {**self.gmres.counts(out[:1]), **self.eig.counts(out[1:])}


WORKLOADS = {cls.name: cls for cls in (Qr, Krylov)}
