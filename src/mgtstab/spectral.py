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

A mesh mirror-symmetric in one coordinate (the transducer section, the
half disk) whose blocks are mirror-invariant splits the eigensolve once
more: the generator maps even and odd node vectors to even and odd ones,
so its spectrum is the union of two folded generators of about half the
size.  Without such a mirror the whole generator is solved as it is.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .dynamics import assemble_generator
from .errors import ConfigError, NumericalError

DENSE_EIG_CAP = 6000
_BLOCKS = ("Ew", "Lu", "Lv", "Lw")


@dataclass
class SpectrumReport:
    """Eigenvalues of a generator with the derived stability flags.

    ``stable`` holds when the abscissa lies below ``-len(eigenvalues) eps
    max|lambda|``, so an abscissa within rounding of zero (a conservative
    generator) is not stable whatever its sign.  ``method`` names the
    dense eigensolve that produced the eigenvalues, and ``blocks`` (not
    in ``to_dict``) the sizes of the dense matrices it solved.
    """

    eigenvalues: np.ndarray
    abscissa: float
    stable: bool
    method: str
    form: str = "u"
    blocks: tuple = ()

    def to_dict(self):
        return {
            "eigenvalues": [[float(v.real), float(v.imag)] for v in self.eigenvalues],
            "abscissa": self.abscissa,
            "stable": self.stable,
            # constant, kept for byte-identical artifacts; perfbench/workloads.py reads it
            "partial": False,
            "form": self.form,
            "method": self.method,
        }


def _sorted_eigvals(vals):
    vals = np.asarray(vals, complex)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def _eigvals(A):
    # a dense generator with an inf or nan entry (parameters whose ratios
    # overflow) has no spectrum to report
    if not np.isfinite(A).all():
        raise NumericalError("the dense generator matrix has non-finite entries")
    return scipy.linalg.eigvals(A, check_finite=False)


def check_dense_cap(size):
    """Raise ``ConfigError`` when a generator of first-order size ``size``
    (3n) is above ``DENSE_EIG_CAP``, the largest the dense eigensolve takes."""
    if size > DENSE_EIG_CAP:
        raise ConfigError(
            "generator size 3n = %d exceeds the dense eigensolver cap %d"
            % (size, DENSE_EIG_CAP)
        )


def _mirror(gen):
    """The node permutation ``P`` of the mesh's mirror in one coordinate when
    it maps nodes and tagged facets onto themselves and leaves each block
    that is not None invariant, ``A[P][:, P] == A`` within ``64 eps max|A|``;
    else None."""
    mesh = gen.bundle.mesh
    x, n, i = mesh.nodes, mesh.n_nodes, np.arange(mesh.n_nodes)
    order, weights = np.lexsort(x.T), n ** np.arange(mesh.dim)
    for k in range(mesh.dim):
        y = x.copy()
        y[:, k] = x[:, k].min() + x[:, k].max() - x[:, k]
        mirrored = np.lexsort(y.T)
        if not np.array_equal(x[order], y[mirrored]):
            continue
        P = np.empty(n, np.int64)
        P[mirrored] = order
        # each facet as one key: its sorted nodes in base n, then its tag (0 or 1)
        facets = (np.sort(f, axis=1) @ weights * 2 + mesh.facet_tags
                  for f in (mesh.facets, P[mesh.facets]))
        blocks = (getattr(gen, b) for b in _BLOCKS)
        if np.array_equal(P[P], i) and np.array_equal(*map(np.sort, facets)) and all(
            abs(A[P][:, P] - A).max() <= 64 * np.finfo(float).eps * abs(A).max()
            for A in blocks if A is not None
        ):
            return P
    return None


def _split(gen):
    # the generator itself, or its folds on the even subspace of its mirror P
    # (one row per orbit, columns A[:, r] + A[:, P r]) and on the odd one (the
    # off-axis orbits, columns A[:, r] - A[:, P r]); a block set to None stays None
    P = _mirror(gen)
    if P is None:
        return [gen]
    i, folds = np.arange(len(P)), []
    for r, sign in ((i[i <= P], 1.0), (i[i < P], -1.0)):
        rows = {b: getattr(gen, b)[r] for b in _BLOCKS if getattr(gen, b) is not None}
        folds.append(replace(gen, **{b: A[:, r] + sign * A[:, P[r]] for b, A in rows.items()}))
    return folds


def spectrum(generator):
    """All eigenvalues of the generator pencil ``L x = lambda E x``.

    The full spectrum comes from standard dense eigensolves; ``E``
    (``diag(I, I, tau M)`` in u-form) is block-diagonal SPD, so the
    generator matrix ``E^{-1} L`` costs one sparse factorization of its
    third block (method ``dense``).  When the bundle's ``Mgamma`` holds
    no nonzero entry (gamma == 0 exactly) the eigensolve runs on the 2n
    damped-wave block of the z-form generator (``Generator.dense_vw``)
    and ``-c^2/b`` is added n times (method ``dense-wave-block``); the
    z-form is assembled from the bundle's parameters unless
    ``generator`` already is one.  Either way a mesh mirror that leaves
    the solved blocks invariant splits the eigensolve into its even and
    odd folds (``_split``).  u- and z-form are exactly conjugate,
    so either way the report keeps the ``form`` and size of the
    generator it was given.  A generator of first-order size 3n above
    ``DENSE_EIG_CAP`` raises ``ConfigError`` before any dense matrix is
    built, and one with a non-finite entry raises ``NumericalError``.
    """
    n = generator.size
    check_dense_cap(n)
    if generator.bundle.Mgamma.count_nonzero() == 0:
        gen = generator if generator.form == "z" else assemble_generator(generator.bundle, "z")
        # dense_vw reads no Lu (all zeros here), so it is neither checked nor folded
        parts = [_eigvals(g.dense_vw()) for g in _split(replace(gen, Lu=None))]
        vals = _sorted_eigvals(np.concatenate([np.full(n // 3, gen.shift)] + parts))
        method = "dense-wave-block"
    else:
        parts = [_eigvals(g.dense()) for g in _split(generator)]
        vals = _sorted_eigvals(np.concatenate(parts))
        method = "dense"
    abscissa = float(vals.real.max())
    tol = float(len(vals) * np.finfo(float).eps * np.abs(vals).max())
    return SpectrumReport(
        eigenvalues=vals,
        abscissa=abscissa,
        stable=abscissa < -tol,
        method=method,
        form=generator.form,
        blocks=tuple(len(p) for p in parts),
    )


def modal_cubic_roots(mu, params):
    """Roots of the modal cubic for one elliptic eigenvalue ``mu > 0``.

    ``params`` is a config's ``params`` section (a mapping with keys
    ``tau, alpha, b, c``, alpha being constant, where the modal reduction
    is exact).  Roots are companion-matrix eigenvalues sorted by (real,
    imag).
    """
    mu = float(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    tau, alpha, b, c = (float(params[k]) for k in ("tau", "alpha", "b", "c"))
    return _sorted_eigvals(np.roots([tau, alpha, b * mu, c**2 * mu]))


def abscissa_vs_decay(rep, omega):
    """Cross-check: fitted energy decay rate vs twice the abscissa.

    ``rep`` is the ``SpectrumReport`` of the generator and ``omega`` the
    rate ``fit_decay_rate`` fitted to the run's energy, or None where
    that fit is not applicable.  For a stable generator the energy of the
    dominant mode decays like ``exp(2 * abscissa * t)``, so ``omega``
    should match ``2 |abscissa|``.  Returns the ratio together with both
    numbers; flagged not applicable when the report is not ``stable`` or
    there is no fitted rate.
    """
    out = {
        "abscissa": rep.abscissa,
        "fitted_omega": None,
        "ratio": None,
        "applicable": False,
    }
    if not rep.stable or omega is None:
        return out
    out["fitted_omega"] = omega
    out["ratio"] = omega / (2.0 * abs(rep.abscissa))
    out["applicable"] = True
    return out
