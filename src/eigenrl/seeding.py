"""Every random stream of a run, seeded in one array pass.

Each repetition owns two streams: its agent's, and, when environments are
resampled, its operator's.  Their seeds are derived from the run's root
seed, and each generator has the stream ``np.random.default_rng(seed)``
gives.  Both steps are NumPy's ``SeedSequence`` hashing, which NumPy runs
once per seed; here it runs once for all members, as uint32 array
arithmetic with NumPy's constants:

- the entropy words are each integer's 32-bit words, least significant
  first, zero-padded to the pool of four words, which changes no hash;
- ``hashmix`` hashes the entropy into the pool and ``mix`` mixes every
  pool word into every other, then each entropy word past the fourth into
  every pool word;
- ``generate_state`` hashes the pool, cycled, into the output words, two to
  a uint64, the lower first.

A generator is built as ``Generator(PCG64(holder))``, where the holder is
a ``numpy.random.bit_generator.ISeedSequence`` that hands PCG64 its four
precomputed words; PCG64 asks for them once, so its stream is
``default_rng(seed)``'s.  ``numpy.random`` is imported on first use only,
so that importing the package does not pay for it.
"""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import ConfigError

#: the most members whose seeds one root seed derives: member indices are
#: one 32-bit word of the entropy
MAX_MEMBERS = 1 << 32

_MASK = 0xFFFFFFFF
_POOL = 4
# NumPy's SeedSequence constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """NumPy's ``hashmix``: each call hashes a uint32 array with the next
    constant of a sequence that depends on the call count alone."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK
        value = value * const
        return value ^ (value >> 16)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> 16)


def require_seed(seed: int, what: str = "seed") -> int:
    """``seed`` if it is non-negative, as NumPy's seed sequences need;
    ConfigError naming ``what`` otherwise."""
    if seed < 0:
        raise ConfigError(f"{what} must be non-negative, got {seed}")
    return seed


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first."""
    words = [value & _MASK]
    while value := value >> 32:
        words.append(value & _MASK)
    return words


def _states(entropy: np.ndarray, lengths: np.ndarray | None, n_words: int) -> np.ndarray:
    """(n, n_words) uint64: ``SeedSequence(e).generate_state(n_words,
    np.uint64)`` for each column ``e`` of a (words, n) uint32 entropy array.
    Column ``i`` holds ``lengths[i]`` words and then zeros; without
    ``lengths``, or at most four words each, every column is full."""
    if len(entropy) < _POOL:
        entropy = np.concatenate([entropy, np.zeros((_POOL - len(entropy), entropy.shape[1]),
                                                    dtype=np.uint32)])
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w, word in enumerate(entropy[_POOL:], _POOL):
        for dst in range(_POOL):
            mixed = _mix(pool[dst], hashmix(word))
            pool[dst] = mixed if lengths is None else np.where(lengths > w, mixed, pool[dst])
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(2 * n_words)]
    return np.stack([out[i] | out[i + 1] << 32 for i in range(0, 2 * n_words, 2)], axis=1)


def derive_seeds(root: int, salt: int, count: int) -> np.ndarray:
    """(count,) uint64: seed ``i`` is ``SeedSequence([root, salt,
    i]).generate_state(1, np.uint64)[0]``, the independent child seed of
    member ``i`` of a run seeded ``root``."""
    if count > MAX_MEMBERS:
        raise ConfigError(f"at most {MAX_MEMBERS} members share a root seed, got {count}")
    head = _words(require_seed(root, "root seed")) + _words(require_seed(salt, "salt"))
    entropy = np.empty((len(head) + 1, count), dtype=np.uint32)
    entropy[:-1] = np.array(head, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(count, dtype=np.uint32)
    return _states(entropy, None, 1)[:, 0]


class _State:
    """A seed sequence already hashed: ``PCG64`` asks it once for its state,
    ``generate_state(4, np.uint64)``, and gets the precomputed row."""

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray) -> None:
        self.row = row

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.row


@functools.cache
def _bit_generator():
    """``Generator`` and ``PCG64``, with ``_State`` registered as a seed
    sequence; imported on the first call."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_State)
    return Generator, PCG64


def generators(seeds: Sequence[int] | np.ndarray) -> list:
    """One ``np.random.Generator`` per non-negative integer seed, each with
    the stream of ``np.random.default_rng(seed)``."""
    values = np.asarray(seeds, dtype=object).tolist()  # Python ints, of any width
    require_seed(min(values, default=0))
    width = max(2, -(-max(values, default=0).bit_length() // 32))  # words of the widest
    blob = b"".join(v.to_bytes(4 * width, "little") for v in values)
    entropy = np.frombuffer(blob, dtype="<u4").reshape(len(values), width).T.astype(np.uint32)
    lengths = np.array([len(_words(v)) for v in values]) if width > _POOL else None
    Generator, PCG64 = _bit_generator()
    return [Generator(PCG64(_State(row))) for row in _states(entropy, lengths, 4)]
