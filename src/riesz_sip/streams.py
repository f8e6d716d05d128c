"""The random streams of the harness's trials, seeded a chunk at a time.

Trial i of a run with seed s draws from np.random.default_rng((s, i)),
and the orthogonal recipe's attempt a of trial i hands orthogonal_sample
np.random.default_rng((s, i, a)). Building one default_rng per key costs
a SeedSequence hash and a new bit generator each. ChunkStreams gives the
same streams bit for bit: stream_states hashes all the keys of a chunk
at once with numpy, following numpy's SeedSequence and PCG64 seeding
step by step, and each stream is one reused Generator set to its key's
state before use.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# numpy.random.SeedSequence's hash (numpy/random/bit_generator.pyx): its
# pool of 4 words, the multipliers of its two running hash constants and
# its mixing multipliers, all mod 2^32; and PCG64's 128-bit multiplier.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init and its next count products by mult mod 2^32: the hash constants, as a (count + 1, 1) column."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)[:, None]
    h.flags.writeable = False
    return h


def _hashmix(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the rows of v, row i with constants h[i] and h[i + 1]."""
    v = (v ^ h[:-1]) * h[1:]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


# The pool words each word of the pool mixes into, in numpy's order.
_OTHERS = tuple(np.array([d for d in range(_POOL) if d != src]) for src in range(_POOL))


def _pool_states(words: np.ndarray) -> list:
    """The PCG64 (state, inc) that numpy seeds from each column of an (L, K) array of entropy words, L >= 4.

    numpy's SeedSequence(entropy) mixes the words into its pool and draws
    four 64-bit words from the pool, and PCG64 seeds from them: this does
    both for K entropies of L words at once, one numpy operation per row
    block of hash constants, and the 128-bit seeding step in Python ints.
    """
    L = len(words)
    h = _hash_constants(_INIT_A, _MULT_A, 4 * L)
    pool = _hashmix(words[:_POOL], h[:_POOL + 1])
    t = _POOL
    for src, dst in enumerate(_OTHERS):  # every word into every other
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[t:t + _POOL]))
        t += _POOL - 1
    for src in range(_POOL, L):  # the words past the pool
        pool = _mix(pool, _hashmix(words[src], h[t:t + _POOL + 1]))
        t += _POOL
    state = _hashmix(np.concatenate((pool, pool)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    out = []
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(state.T, dtype="<u4").view("<u8").tolist():
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        out.append(((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc & _MASK128, inc))
    return out


def _int_words(v: int) -> list:
    """numpy's entropy words of an int in [0, 2^64): its 32-bit words, least significant first."""
    return [v & _MASK32, v >> 32] if v >> 32 else [v]


def stream_states(seed: int, indices, tails: tuple = ((),)) -> list:
    """Per tail, the PCG64 (state, inc) of np.random.default_rng((seed, i, *tail)) for each i of indices.

    Bit for bit numpy's: a key is the words of its ints in order
    (_int_words), and a key of fewer words than the pool is hashed as if
    padded with zero words, so the keys of at most four words are hashed
    together, and longer ones with those of their length.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    head = _int_words(seed)
    wide = idx >> 32 != 0
    blocks = {}  # words per key -> [(tail, rows, words)]
    for t, tail in enumerate(tails):
        rest = [w for v in tail for w in _int_words(v)]
        for rows, width in ((np.flatnonzero(~wide), 1), (np.flatnonzero(wide), 2)):
            if rows.size:
                L = len(head) + width + len(rest)
                words = np.zeros((max(L, _POOL), rows.size), dtype=np.uint32)
                words[:len(head)] = np.array(head)[:, None]
                words[len(head)] = idx[rows] & _MASK32
                words[len(head) + 1:len(head) + width] = idx[rows] >> 32
                words[len(head) + width:L] = np.array(rest, dtype=np.uint32)[:, None]
                blocks.setdefault(len(words), []).append((t, rows, words))
    out = [[None] * len(idx) for _ in tails]
    for block in blocks.values():
        states = iter(_pool_states(np.hstack([words for _, _, words in block])))
        for t, rows, _ in block:
            for i in rows.tolist():
                out[t][i] = next(states)
    return out


def _seeded(bit_generator, state: tuple):
    """Set bit_generator (a PCG64) to a fresh stream's (state, inc); its Generator draws from there."""
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state[0], "inc": state[1]},
                           "has_uint32": 0, "uinteger": 0}


class ChunkStreams:
    """The random streams of a chunk of trials, pre-seeded from one hash of all their keys.

    Trial i draws from default_rng((seed, i)), and the orthogonal
    recipe's attempt a at trial i hands orthogonal_sample
    default_rng((seed, i, attempt)). Here each is one reused Generator
    set to the state default_rng would seed for that key (stream_states,
    bit for bit): the trial keys of the chunk, and for the orthogonal
    recipe its first attempt keys, are hashed at once; a later attempt's
    key is hashed alone when it comes. The states live as long as the
    chunk's streams.
    """

    def __init__(self, seed: int, indices, purpose: str):
        self.seed = seed
        states = stream_states(seed, indices, ((), (0,)) if purpose == "orthogonal" else ((),))
        self._trial = dict(zip(indices, states[0]))
        self._first_attempt = dict(zip(indices, states[-1])) if purpose == "orthogonal" else {}
        self._rng = np.random.default_rng(0)  # its state is set before each use
        self._attempt_rng = None

    def trial(self, i: int) -> np.random.Generator:
        """Trial i's stream, from its start."""
        _seeded(self._rng.bit_generator, self._trial[i])
        return self._rng

    def attempt(self, i: int, attempt: int) -> np.random.Generator:
        """The stream of trial i's attempt, from its start; a Generator apart from trial i's."""
        if self._attempt_rng is None:
            self._attempt_rng = np.random.default_rng(0)
        state = self._first_attempt.get(i) if attempt == 0 else None
        _seeded(self._attempt_rng.bit_generator,
                state or stream_states(self.seed, (i,), ((attempt,),))[0][0])
        return self._attempt_rng
