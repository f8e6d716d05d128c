"""The harness's trial streams, seeded a chunk at a time, against np.random.default_rng.

streams.ChunkStreams hashes the keys of a chunk at once and sets each
stream on a reused Generator; every stream must draw what
np.random.default_rng of its key draws, from its start, for one-word and
two-word seeds and trial indices, and generate_instance without a chunk's
streams must seed its own by the same hash.
"""

import numpy as np
import pytest

from riesz_sip import streams
from riesz_sip.harness import TrialConfig, generate_instance

STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 9, 2**64 - 1)
STREAM_INDICES = (0, 255, 256, 9999, 2**32 - 1)


def _words(rng, count: int) -> np.ndarray:
    """count integers draws of rng over all 32-bit words: one 32-bit word each, half a 64-bit draw."""
    return rng.integers(0, 2**32 - 1, count, dtype=np.uint32, endpoint=True)


def _first_draws(rng) -> bytes:
    """The first 64 random() draws of rng, then its first 64 integers draws."""
    return np.array([rng.random() for _ in range(64)]).tobytes() + _words(rng, 64).tobytes()


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_pre_seeded_streams_draw_what_default_rng_draws(seed):
    # a chunk's streams come from one hash of all its keys, set on a reused
    # Generator: each must draw what np.random.default_rng of its key
    # draws, the trial keys (seed, i) and orthogonal_sample's attempt keys
    # (seed, i, attempt), from their start however the Generator was left
    # (here with the upper half of a 64-bit draw buffered for the next
    # 32-bit one)
    chunk = streams.ChunkStreams(seed, STREAM_INDICES, "orthogonal")
    for i in STREAM_INDICES:
        for key, stream in [((seed, i), lambda: chunk.trial(i))] + [
                ((seed, i, a), lambda a=a: chunk.attempt(i, a)) for a in (0, 1, 99)]:
            _words(stream(), 3)
            assert _first_draws(stream()) == _first_draws(np.random.default_rng(key)), key


def test_a_lone_instance_is_seeded_by_the_chunk_hash(monkeypatch):
    # without streams, generate_instance seeds the trial's own by the hash
    # that seeds a chunk's, on the one key: one generation path
    keys = []

    def recorded(seed, indices, tails=((),), _states=streams.stream_states):
        keys.append((seed, list(indices), tails))
        return _states(seed, indices, tails)

    monkeypatch.setattr(streams, "stream_states", recorded)
    config = TrialConfig(seed=2**40 + 9, trials=300)
    for purpose in ("generic", "positive_log", "orthogonal"):
        chunk = streams.ChunkStreams(config.seed, range(config.trials), purpose)
        for i in (0, 255, 256, 299):
            del keys[:]
            alone = generate_instance(config, i, purpose).to_dict()
            assert keys[0][:2] == (config.seed, [i])
            assert alone == generate_instance(config, i, purpose, chunk).to_dict()
