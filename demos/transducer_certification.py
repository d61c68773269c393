"""Certify the transducer cross-section and run its critical scenario.

The domain models a transducer cross-section: a circular-arc cap at the
bottom (the driven, undissipated Robin part gamma0) closed by a dome of
absorbing segments (gamma1). The multiplier construction behind the
decay analysis needs three certified facts:

  1. (x - x0) . nu <= 0 on gamma0 for the chosen interior point x0,
  2. the gamma0 chain is convex,
  3. a C^1 vector field h that is tangential on gamma0 with uniformly
     positive-definite symmetric Jacobian part.

(1) and (2) are exact checks on the polygon. (3) is built here by
bending the radial field inside a boundary collar and certified on the
mesh: the smallest Jacobian eigenvalue c0 stays positive and the normal
trace on gamma0 vanishes to roundoff. Then the scenario itself runs at
gamma = 0, where all decay must come from the absorbing dome.
"""

import numpy as np

import mgtstab as M


def main():
    geometry = M.named_geometry("transducer")
    print("transducer cross-section: %d boundary segments (%d on the cap)"
          % (geometry.n_segments, np.count_nonzero(geometry.segment_tags == M.GAMMA0)))

    star = M.check_star_shaped(geometry)
    convex = M.check_convex_gamma0(geometry)
    print("star-shape margin on gamma0: %.3e (needs <= 0)" % star["max_violation"])
    print("minimal gamma0 turn: %.3e (needs >= 0)" % convex["min_turn"])

    print("\ncertification under refinement (collar width 0.35):")
    print("  res   mesh size     c0        max |h.nu| on gamma0")
    for res in (6, 12, 24, 48):
        mesh = M.build_mesh(geometry, res)
        h = M.build_vector_field_h(geometry, mesh, 0.35)
        print("  %3d   %.5f    %.5f     %.2e"
              % (res, mesh.mesh_size(), h.certified_c0, h.max_normal_trace_on_gamma0))

    scen = M.Scenario(M.load_config({"preset": "transducer-2d"}))
    print("\ncritical simulation (gamma = 0, kappa1 = 1, Gaussian pulse):")
    traj = M.simulate(scen.bundle, scen.initial, T=8.0, dt=4e-3, output_stride=4)
    fit = M.fit_decay_rate(traj.times, traj.E1)
    print("E1: %.3e -> %.3e over T = 8" % (traj.E1[0], traj.E1[-1]))
    print("fitted decay rate omega = %.4f (positive: boundary absorption "
          "alone drains the energy)" % fit["omega"])
    gen = M.assemble_generator(scen.bundle, form="u")
    print("spectral abscissa: %.3e" % M.spectrum(gen).abscissa)


if __name__ == "__main__":
    main()
