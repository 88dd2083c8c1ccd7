"""Counter-based randomness.

Every random draw in the package is a pure function of
``(master_seed, replicate, what-is-being-drawn)``:

* Poisson configurations use a Philox generator keyed by
  ``(master_seed, replicate)`` with a fixed draw order, so a replicate is
  bit-reproducible and replicates can be produced in any order or in
  parallel.
* Lattice marks are derived statelessly from the integer site coordinates,
  so the same site carries the same mark in every configuration of the same
  replicate.  Ensembles over an epsilon grid therefore share random numbers
  site by site, which removes most of the noise from fitted slopes.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_AXIS_SALT = (_U64(0xA0761D6478BD642F), _U64(0xE7037ED1A0B428DB),
              _U64(0x8EBC6AF09C88C6E3), _U64(0x589965CC75374CC3),
              _U64(0x1D8E4E27C47D124F), _U64(0xEB44ACCAB455D165))
_INV53 = 1.0 / (1 << 53)


def _splitmix64(x):
    """Vectorised splitmix64 finaliser, in place on a uint64 array the caller owns."""
    with np.errstate(over="ignore"):
        x += _GOLDEN
        x ^= x >> _U64(30)
        x *= _MIX1
        x ^= x >> _U64(27)
        x *= _MIX2
        x ^= x >> _U64(31)
    return x


def stream_key(master_seed: int, replicate: int) -> int:
    """64-bit key identifying the (seed, replicate) stream."""
    a = _splitmix64(np.array(master_seed, dtype=np.int64).view(_U64))
    b = _splitmix64(np.array(replicate + 0x51AF, dtype=np.int64).view(_U64))
    return int(_splitmix64(a ^ (b << _U64(1))))


def replicate_generator(master_seed: int, replicate: int) -> np.random.Generator:
    """Philox generator for one replicate; draw order defines the stream."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, replicate)))


def coordinate_uniforms(master_seed: int, replicate: int, coords) -> np.ndarray:
    """Uniform[0,1) per integer coordinate row, independent of row order.

    ``coords`` is an (n, d) integer array, or a tuple of d broadcastable
    integer arrays, one per axis, such as ``np.ix_(*axes)``.  The output
    then has their broadcast shape, and each hash round runs once per
    distinct leading coordinates, so only the last runs on every site.
    Either way a value depends only on the key and its coordinates, never
    on the enumeration order.
    """
    cols = coords if isinstance(coords, tuple) else np.asarray(coords).T
    h = _U64(stream_key(master_seed, replicate))
    with np.errstate(over="ignore"):
        for axis, col in enumerate(cols):
            col = np.ascontiguousarray(col, dtype=np.int64).view(np.uint64)
            h = _splitmix64(h ^ (col * _AXIS_SALT[axis % len(_AXIS_SALT)]))
    h >>= _U64(11)                      # the top 53 bits, scaled into one new array
    return np.multiply(h, _INV53, out=np.empty(h.shape))
