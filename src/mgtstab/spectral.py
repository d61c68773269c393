"""Generator spectra, the modal cubic and the stability dichotomy.

The sign of the stability parameter ``gamma = alpha - tau c^2 / b``
separates the regimes: on an eigenmode ``mu`` of the elliptic pair
(Ktilde, M) the equation reduces to the cubic

    tau lambda^3 + alpha lambda^2 + b mu lambda + c^2 mu = 0,

whose Routh-Hurwitz condition ``alpha b > tau c^2`` is exactly
``gamma > 0`` (all coefficients being positive).  At equality the cubic
factors as ``(lambda + c^2/b)(tau lambda^2 + b mu)``, giving one negative
real root and a conjugate pair on the imaginary axis.

The same factorization holds for the assembled generator: with
``gamma == 0`` the z-form coupling block ``-q^2 Mgamma / tau`` vanishes,
so the generator is block triangular, with ``-c^2/b`` n times on its
diagonal next to the 2n damped-wave block in ``(z, z_t)``.
``spectrum`` then solves only that block.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, splu

from . import energy as _energy
from .dynamics import assemble_generator

DENSE_EIG_CAP = 6000


@dataclass
class SpectrumReport:
    """Eigenvalues of a generator with the derived stability flags.

    ``stable`` holds when the abscissa lies below ``-len(eigenvalues) eps
    max|lambda|``, so an abscissa within rounding of zero (a conservative
    generator) is not stable whatever its sign.
    ``meta`` holds the eigensolver ``method`` and, when the iterative
    eigensolver stopped early, the number of ``converged`` eigenvalues;
    ``health()`` returns those of them that are present.
    """

    eigenvalues: np.ndarray
    abscissa: float
    stable: bool
    partial: bool = False
    form: str = "u"
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "eigenvalues": [[float(v.real), float(v.imag)] for v in self.eigenvalues],
            "abscissa": self.abscissa,
            "stable": self.stable,
            "partial": self.partial,
            "form": self.form,
            **self.health(),
        }

    def health(self):
        return {k: self.meta[k] for k in ("method", "converged") if k in self.meta}


def _sorted_eigs(vals):
    vals = np.asarray(vals, complex)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def spectrum(generator, dense_cap=DENSE_EIG_CAP, n_partial=40):
    """Eigenvalues of the generator pencil ``L x = lambda E x``.

    Up to ``dense_cap`` (total first-order size 3n) the full spectrum
    comes from one standard dense eigensolve; ``E`` (``diag(I, I, tau M)``
    in u-form) is block-diagonal SPD, so the generator matrix
    ``E^{-1} L`` costs one sparse factorization of its third block.
    When the bundle's ``Mgamma`` holds no nonzero entry (gamma == 0
    exactly) the eigensolve runs on the 2n damped-wave block of the
    z-form generator (``Generator.dense_vw``) and ``-c^2/b`` is added n
    times (method ``dense-wave-block``); the z-form is assembled from
    the bundle's parameters unless ``generator`` already is one.  u- and
    z-form are exactly conjugate, so either way the report keeps the
    ``form`` and size of the generator it was given.  Otherwise the
    eigensolve runs on the 3n generator matrix (method ``dense``).
    Above the cap the report is flagged ``partial``: only the
    ``n_partial`` eigenvalues of smallest modulus are computed
    (shift-invert at zero with a fixed start vector, the only target
    that converges reliably for this stiff pencil), so the reported
    abscissa is then a lower bound over that subset, not a certified
    global abscissa, and ``abscissa_vs_decay`` reports the cross-check
    as not applicable.
    """
    n = generator.size
    meta = {}
    if n <= dense_cap:
        bundle = generator.bundle
        if bundle.Mgamma.count_nonzero() == 0:
            gen = generator
            if gen.form != "z":
                gen = assemble_generator(bundle, "z")
            wave = scipy.linalg.eigvals(gen.dense_vw())
            vals = _sorted_eigs(np.concatenate((np.full(n // 3, gen.shift), wave)))
            meta["method"] = "dense-wave-block"
        else:
            vals = _sorted_eigs(scipy.linalg.eigvals(generator.dense()))
            meta["method"] = "dense"
        partial = False
    else:
        from .errors import NumericalError

        try:
            lu = splu(generator.L.tocsc())
        except RuntimeError as exc:
            raise NumericalError("shift-invert factorization failed: %s" % exc)
        E = generator.E.tocsr()
        # L x = lambda E x  <=>  (L^{-1} E) x = (1/lambda) x
        op = LinearOperator((n, n), matvec=lambda x: lu.solve(E @ x))
        v0 = np.full(n, 1.0 / np.sqrt(n))
        k = min(n_partial, n - 2)
        try:
            inv_vals = eigs(op, k=k, which="LM", v0=v0, return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            if len(exc.eigenvalues) == 0:
                raise NumericalError("iterative eigensolver did not converge")
            inv_vals = exc.eigenvalues
            meta["converged"] = int(len(inv_vals))
        vals = _sorted_eigs(1.0 / inv_vals)
        partial = True
        meta["method"] = "sparse-shift-invert"
        meta["target"] = "smallest modulus"
    abscissa = float(vals.real.max())
    tol = float(len(vals) * np.finfo(float).eps * np.abs(vals).max())
    return SpectrumReport(
        eigenvalues=vals,
        abscissa=abscissa,
        stable=abscissa < -tol,
        partial=partial,
        form=generator.form,
        meta=meta,
    )


def _cubic_coeffs(params):
    if np.isscalar(params) or isinstance(params, (tuple, list)):
        raise TypeError("params must be MaterialParams or a mapping with tau/alpha/b/c")
    if hasattr(params, "constant_alpha"):
        tau, b, c = params.tau, params.b, params.c
        alpha = params.constant_alpha()
    else:
        tau, alpha, b, c = (float(params[k]) for k in ("tau", "alpha", "b", "c"))
    return tau, alpha, b, c


def modal_cubic_roots(mu, params):
    """Roots of the modal cubic for one elliptic eigenvalue ``mu > 0``.

    ``params`` is a MaterialParams with spatially constant alpha (the
    modal reduction is only exact then) or a mapping with keys
    ``tau, alpha, b, c``.  Roots are companion-matrix eigenvalues sorted
    by (real, imag).
    """
    mu = float(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    tau, alpha, b, c = _cubic_coeffs(params)
    roots = np.roots([tau, alpha, b * mu, c**2 * mu])
    return _sorted_eigs(roots)


def routh_hurwitz_stable(tau, alpha, b, c, mu=1.0):
    """Routh-Hurwitz test of the modal cubic: stable iff gamma > 0."""
    if min(tau, alpha, b, c, mu) <= 0:
        return False
    return alpha * b > tau * c**2


def gamma_parameter(tau, alpha, b, c):
    return alpha - tau * c**2 / b


def abscissa_vs_decay(rep, times, E1, tail_fraction=0.5):
    """Cross-check: fitted energy decay rate vs twice the abscissa.

    ``rep`` is the ``SpectrumReport`` of the generator.  For a stable
    generator the energy of the dominant mode decays like
    ``exp(2 * abscissa * t)``, so the fitted omega over the tail should
    match ``2 |abscissa|``.  Returns the ratio together with both
    numbers; flagged not applicable when the spectrum is partial (its
    abscissa is not the global one), the report is not ``stable``, or
    the fit degenerates.
    """
    out = {
        "abscissa": rep.abscissa,
        "fitted_omega": None,
        "ratio": None,
        "applicable": False,
    }
    if rep.partial or not rep.stable:
        return out
    try:
        fit = _energy.fit_decay_rate(times, E1, tail_fraction=tail_fraction)
    except ValueError:
        return out
    out["fitted_omega"] = fit["omega"]
    out["ratio"] = fit["omega"] / (2.0 * abs(rep.abscissa))
    out["applicable"] = True
    return out
