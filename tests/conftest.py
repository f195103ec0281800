import numpy as np

from sirlimits.inference import log_likelihood
from sirlimits.sir import SirParams


def fd_gradient(params, sigma, spec, rel_step=1e-6, richardson=False):
    """Central finite differences of the log-likelihood (test oracle).

    ``richardson`` combines steps h and h/2 to cancel the quadratic
    truncation term, which matters at points where the gradient is small
    enough that plain central differences sit on the rounding floor.
    """

    free = spec.noise.sigma_free

    def central(rel):
        theta = [params.beta, params.gamma] + ([sigma] if free else [])
        out = []
        for j, value in enumerate(theta):
            h = rel * abs(value)
            up = list(theta)
            dn = list(theta)
            up[j] += h
            dn[j] -= h
            f_up = log_likelihood(SirParams(up[0], up[1]), up[2] if free else sigma, spec)
            f_dn = log_likelihood(SirParams(dn[0], dn[1]), dn[2] if free else sigma, spec)
            out.append((f_up - f_dn) / (2.0 * h))
        return np.array(out)

    if not richardson:
        return central(rel_step)
    return (4.0 * central(rel_step / 2.0) - central(rel_step)) / 3.0
