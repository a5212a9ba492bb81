"""Shared construction helpers for the test suite."""

import numpy as np

from spincol import OverlapBlocks, SpinorDeterminant, gen_dods, gen_rhf, gen_rohf, orthonormalize

EPS = np.finfo(float).eps
# Everything a rotation seeds from the parent's, besides the Hermiticity residual bounds.
SEEDED = ("_record", "_identity_deviation")


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_pd_metric(rng, m):
    b = random_complex(rng, m, m)
    return b.conj().T @ b + 0.5 * np.eye(m)


def random_metric_determinant(m, ne, seed):
    """Random orthonormal determinant over a random non-identity metric."""
    rng = np.random.default_rng(seed)
    raw = SpinorDeterminant(
        basis_dim=m,
        n_electrons=ne,
        coeff_alpha=random_complex(rng, m, ne),
        coeff_beta=random_complex(rng, m, ne),
        ao_overlap=random_pd_metric(rng, m),
    )
    return orthonormalize(raw)


def over_metric(det, metric):
    """``det`` over ``metric``: coefficients times metric**(-1/2), so every block is unchanged."""
    w, v = np.linalg.eigh(metric)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return SpinorDeterminant(
        det.basis_dim, det.n_electrons, inv_sqrt @ det.coeff_alpha, inv_sqrt @ det.coeff_beta, metric
    )


def random_dods(m, n_alpha, n_beta, seed):
    rng = np.random.default_rng(seed)
    return gen_dods(random_complex(rng, m, n_alpha), random_complex(rng, m, n_beta))


def random_rohf(m, n_closed, n_open, seed):
    rng = np.random.default_rng(seed)
    return gen_rohf(random_complex(rng, m, n_closed), random_complex(rng, m, n_open))


def random_rhf(m, n_pairs, seed):
    rng = np.random.default_rng(seed)
    return gen_rhf(random_complex(rng, m, n_pairs))


def pure_alpha_one_electron():
    return SpinorDeterminant(1, 1, [[1.0]], [[0.0]])


def pure_beta_one_electron():
    return SpinorDeterminant(1, 1, [[0.0]], [[1.0]])


def x_polarized_one_electron():
    r = 1.0 / np.sqrt(2.0)
    return SpinorDeterminant(1, 1, [[r]], [[r]])


def check_seeded_against_arrays(blocks):
    """Everything a rotation seeded on ``blocks`` is within rounding of the value its mixed arrays give.

    Reading the arrays mixes them; the seeded values stay cached.  Each entry
    of the record (N_alpha, N_beta, <S>, A) and the identity deviation may
    differ by 16·Ne·eps·Ne, and each Hermiticity bound must cover the
    measured residual to within Ne·eps.
    """
    seeded = {name: blocks.__dict__[name] for name in (*SEEDED, "_hermiticity_residuals")}
    ne = blocks.n_electrons
    for name in SEEDED:
        recomputed = OverlapBlocks.__dict__[name].func(blocks)
        pairs = zip(seeded[name], recomputed) if name == "_record" else [(seeded[name], recomputed)]
        for value, want in pairs:
            assert np.max(np.abs(np.subtract(value, want))) <= 16 * ne * EPS * ne, name
    measured = OverlapBlocks.__dict__["_hermiticity_residuals"].func(blocks)
    for name, residual in measured.items():
        assert seeded["_hermiticity_residuals"][name] >= residual - ne * EPS, name
