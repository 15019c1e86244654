"""mtbandit: multi-task kernelized bandits for multi-objective optimization.

The package implements sequential optimization of a vector-valued function
f : X -> R^n living in the RKHS of a matrix-valued (multi-task) kernel.
Random scalarizations reduce each round to a scalar problem, an
optimism-based acquisition rule selects the next query, and vector-valued
kernel ridge regression supplies the posterior mean and covariance.

Two algorithms are provided:

* ``MTKB`` -- exact inference from all past observations.
* ``MTBKB`` -- budgeted inference over a Nystrom dictionary that is
  resampled every round with variance-proportional inclusion
  probabilities.

Typical usage::

    import numpy as np
    from mtbandit import kernels, scalarize, bandit, benchmarks

    rng = np.random.default_rng(0)
    B = kernels.omega_coupling(0.5, n=4)
    gamma = kernels.ICMKernel(kernels.SquaredExponential(0.2), B)
    env, b = benchmarks.make_rkhs_objective(gamma, rng=rng)
    cfg = bandit.AlgorithmConfig(
        algorithm="MTKB", eta=0.1, delta=0.1, horizon=200,
        rkhs_bound=b, noise_sigma=0.1, kappa=gamma.kappa,
        lipschitz_bound=1.0, seed=7,
    )
    result = bandit.run(cfg, env, gamma, scalarize.ChebyshevScalarization(),
                        scalarize.InverseWeightedWeights(4))

The command-line harness (``mtbandit run|plot|validate|pareto|model-dump``)
drives the same machinery from a config file; see the cli module, which
``import mtbandit`` does not load (``python -m mtbandit`` runs it).
"""

__version__ = "0.1.0"

from . import (  # noqa: E402,F401
    bandit,
    benchmarks,
    kernels,
    nystrom,
    posterior,
    scalarize,
    theorybounds,
)

__all__ = [
    "bandit",
    "benchmarks",
    "kernels",
    "nystrom",
    "posterior",
    "scalarize",
    "theorybounds",
    "__version__",
]
