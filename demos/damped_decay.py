"""Exponential decay under boundary absorption, two ways.

The damped interval scenario (gamma = 1, velocity feedback on the right
endpoint) is stable. The honest check is that two completely different
measurements of the decay rate agree:

  * fit log E1 over the tail of a long simulation;
  * the spectral abscissa of the assembled generator pencil.

For a dominant complex pair lambda = a + i w the energy decays like
exp(2 a t) modulated at frequency 2w, so the fit window has to span at
least one modulation period -- shrink T below ~8 here and watch the
ratio drift away from one.
"""

import numpy as np

import mgtstab as M


def main():
    scen = M.Scenario(M.load_config({"preset": "interval-1d-damped"}))
    print("damped interval: alpha = 2, kappa0 = kappa1 = 1, n_nodes = %d"
          % scen.mesh.n_nodes)

    traj = M.simulate(scen.bundle, scen.initial, T=20.0, dt=1e-3, output_stride=10)
    fit = M.fit_decay_rate(traj.times, traj.E1)
    print("E1(0) = %.4e  ->  E1(20) = %.4e" % (traj.E1[0], traj.E1[-1]))
    print("tail fit: E1 ~ M exp(-omega t) with omega = %.4f, M = %.3f "
          "(rms log residual %.2e)" % (fit["omega"], fit["M"], fit["fit_residual"]))

    gen = M.assemble_generator(scen.bundle, form="u")
    rep = M.spectrum(gen)
    dom = rep.eigenvalues[np.argmax(rep.eigenvalues.real)]
    print("\ngenerator spectrum: %d eigenvalues, abscissa %.5f" % (
        len(rep.eigenvalues), rep.abscissa))
    print("dominant pair: %.5f +/- %.5fi  (modulation period %.2f)"
          % (dom.real, abs(dom.imag), np.pi / abs(dom.imag)))

    versus = M.abscissa_vs_decay(rep, fit["omega"])
    print("fitted omega / (2 |abscissa|) = %.4f  (1.0 means the two "
          "measurements agree)" % versus["ratio"])


if __name__ == "__main__":
    main()
