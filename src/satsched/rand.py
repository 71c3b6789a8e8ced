"""Seed plumbing for bit-reproducible experiments.

Every random stream in the package is derived from a single root seed with
an explicit, documented spawn key, so results do not depend on execution
order or parallelism. The splitting rule is

    SeedSequence(entropy=root_seed, spawn_key=key)

where ``key`` is a tuple of small integers naming the consumer. Stream
namespaces in use:

    (1, ...)  ground-truth synthesis   (1, platform_idx)
    (3, ...)  subset-size study        (3, platform_idx, n_s, k)

where ``n_s`` is the sample-size value itself, not its grid position.

The bit generator is selected by name so configs can state it explicitly.
"""

import numbers

import numpy as np

from .errors import ConfigError

BIT_GENERATORS = {
    "philox": np.random.Philox,   # counter-based, default
    "pcg64": np.random.PCG64,
}

NS_GROUND_TRUTH = 1
NS_SUBSET_STUDY = 3


def child_seed(root_seed: int, *key: int) -> np.random.SeedSequence:
    """Derive the SeedSequence for the stream named by ``key``."""
    if not isinstance(root_seed, numbers.Integral) or root_seed < 0:
        raise ConfigError(f"root seed must be a nonnegative integer, got {root_seed!r}")
    if not key:
        raise ConfigError("a spawn key naming the stream is required")
    if not all(isinstance(k, numbers.Integral) and k >= 0 for k in key):
        raise ConfigError(f"spawn key parts must be nonnegative integers, got {key!r}")
    return np.random.SeedSequence(entropy=int(root_seed),
                                  spawn_key=tuple(int(k) for k in key))


def generator_from(seed_seq: np.random.SeedSequence,
                   bit_generator: str = "philox") -> np.random.Generator:
    """Instantiate the named bit generator on a derived seed."""
    try:
        cls = BIT_GENERATORS[bit_generator]
    except KeyError:
        raise ConfigError(
            f"unknown bit generator {bit_generator!r}; "
            f"choose one of {sorted(BIT_GENERATORS)}") from None
    return np.random.Generator(cls(seed_seq))


def stream(root_seed: int, bit_generator: str, *key: int) -> np.random.Generator:
    """Shorthand: generator for the stream named by ``key``."""
    return generator_from(child_seed(root_seed, *key), bit_generator)
