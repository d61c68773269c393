"""Instability once gamma = alpha - tau c^2 / b turns negative.

alpha = 0.5 with tau = c = b = 1 gives gamma = -0.5: the zeroth-order
damping is too weak for the third-order term and every mode carries a
root with positive real part. The Routh-Hurwitz test on the modal cubic

    tau s^3 + alpha s^2 + b mu s + c^2 mu = 0

predicts this from the sign of gamma alone (stable iff alpha b > tau c^2
for every elliptic eigenvalue mu > 0), which is what
``MaterialParams.stability_classification()`` reads; the modal roots,
the assembled generator and the time domain agree.  The energies come
from ``simulate``'s trajectory; a caller that needs the recorded states
themselves copies them from the chunks passed to ``on_chunk``.
"""

import numpy as np
import scipy.linalg

import mgtstab as M


def main():
    scen = M.Scenario(M.load_config({"preset": "interval-1d-unstable"}))
    p = scen.config["params"]
    gamma = float(scen.params.gamma_field.max())  # alpha is constant here
    print("gamma = %.2f  ->  %s" % (gamma, scen.params.stability_classification()))

    # modal prediction: with kappa1 = 0 each elliptic eigenvalue mu of
    # (Ktilde, M) contributes exactly the three roots of its cubic
    mus = scipy.linalg.eigh(
        scen.bundle.Ktilde.toarray(), scen.bundle.Mmat.toarray(), eigvals_only=True)
    worst = max(
        (M.modal_cubic_roots(mu, p).real.max() for mu in mus[:8]),
    )
    gen = M.assemble_generator(scen.bundle, form="u")
    rep = M.spectrum(gen)
    print("max Re over the first 8 modal cubics: %.5f" % worst)
    print("generator abscissa:                   %.5f" % rep.abscissa)

    traj = M.simulate(scen.bundle, scen.initial, T=50.0, dt=5e-3, output_stride=10)
    crossing = traj.times[np.nonzero(traj.E > 10 * traj.E[0])[0][0]]
    print("\ntime domain: E(t) first exceeds 10 E(0) at t = %.2f" % crossing)
    print("   t        E / E(0)")
    for k in range(0, len(traj.times), len(traj.times) // 10):
        print("%6.1f   %10.3e" % (traj.times[k], traj.E[k] / traj.E[0]))

    # which rate shows up depends on what the data excite: the initial
    # profile is (up to O(h^2)) the first elliptic mode, so the observed
    # growth follows that mode's cubic pair, not the large-mu supremum
    # -gamma/(2 tau) = 0.25 that the abscissa reports
    tail = traj.times > 25.0
    rate = np.polyfit(traj.times[tail], np.log(traj.E[tail]), 1)[0] / 2.0
    mu1 = M.robin_mode_frequency(p["kappa0"]) ** 2
    modal = M.modal_cubic_roots(mu1, p)
    print("\nobserved tail growth rate:          %.4f" % rate)
    print("first-mode cubic pair, Re:          %.4f" % modal.real.max())
    print("large-mu supremum (abscissa):       %.4f" % rep.abscissa)


if __name__ == "__main__":
    main()
