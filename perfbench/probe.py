"""Fixed reference loads that measure how fast the host runs right now.

The probes use numpy and scipy only, never qmc, so no change to the
package moves them; only the host's speed does.  Kinds of code lose
different shares of their speed to a busy neighbour, so each workload
is scaled by a probe made of the kind of work that dominates it:

* ``dense`` (spectral): LU factorisations and solves of a 300 x 300
  complex matrix and 256 x 256 complex matvecs, like the d^2 x d^2
  resolvent and ``eig`` work.  In runs on a loaded host it tracked the
  spectral pass about twice as closely as ``mixed``.
* ``mixed`` (horizon, sampler): small batched ``einsum`` calls (the
  sampler's inner step), 256 x 256 complex matvecs (the horizon's
  superoperator products), 64 x 64 complex ``eigvals`` and a bytecode loop.

Each takes about 40 ms on a quiet 2-vCPU Xeon VM.
"""

import time

import numpy as np
import scipy.linalg

_rng = np.random.default_rng(20240517)


def _complex(*shape):
    return _rng.standard_normal(shape) + 1j * _rng.standard_normal(shape)


_K = _complex(2, 2, 2)
_S = _complex(500, 2, 2)
_M = _complex(256, 256)
_V = _M[0].copy()
_A = _complex(64, 64)
_L = _complex(300, 300)
_B = _L[:, :4].copy()


def mixed():
    """Seconds taken by one round of the mixed reference load."""
    start = time.perf_counter()
    for _ in range(200):
        np.einsum("jab,tbc,jac->tj", _K, _S, _K.conj())
    for _ in range(400):
        _M @ _V
    for _ in range(6):
        np.linalg.eigvals(_A)
    x = 0
    for i in range(60_000):
        x += i
    return time.perf_counter() - start


def dense():
    """Seconds taken by one round of the dense linear-algebra reference load."""
    start = time.perf_counter()
    for _ in range(400):
        _M @ _V
    for _ in range(12):
        scipy.linalg.lu_solve(scipy.linalg.lu_factor(_L), _B)
    return time.perf_counter() - start


PROBES = {"spectral": dense, "horizon": mixed, "sampler": mixed}
