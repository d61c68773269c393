"""Critical-case conservation on the interval.

With alpha = tau c^2 / b the damping weight gamma vanishes identically
and, with the absorbing feedback switched off (kappa1 = 0), the z-level
energy E1 is an exact invariant of the continuous dynamics. Implicit
midpoint preserves quadratic invariants of linear systems, so the
discrete drift should sit at solver roundoff -- many orders below any
truncation scale. Run this to see it.
"""

import numpy as np

import mgtstab as M


def main():
    scen = M.Scenario(M.load_config({"preset": "interval-1d-conserved"}))
    print("scenario: interval, n_nodes = %d, gamma = %s" % (
        scen.mesh.n_nodes, scen.params.stability_classification()))
    print("initial data: Robin-compatible boundary mode, omega = %.6f"
          % M.robin_mode_frequency(1.0))

    traj = M.simulate(scen.bundle, scen.initial, T=10.0, dt=1e-3, output_stride=10)

    print("\n   t        E1              E1/E1(0) - 1")
    for k in range(0, len(traj.times), len(traj.times) // 10):
        print("%6.2f   %.12e   %+9.2e" % (
            traj.times[k], traj.E1[k], traj.E1[k] / traj.E1[0] - 1.0))

    drift = np.abs(traj.E1 - traj.E1[0]).max() / traj.E1[0]
    print("\nmax relative E1 drift over %d steps: %.3e" % (10_000, drift))
    print("energy identity residual (balance of E1, dissipation, work): %.3e"
          % M.energy_identity_residual(traj))

    # contrast: the same run with BDF2, which damps numerically
    bdf = M.simulate(scen.bundle, scen.initial, T=10.0, dt=1e-3, output_stride=10, scheme="bdf2")
    print("same run under BDF2 (numerically dissipative): relative E1 loss %.3e"
          % (1.0 - bdf.E1[-1] / bdf.E1[0]))


if __name__ == "__main__":
    main()
