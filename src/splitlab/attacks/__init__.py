"""The server's attacks, and the random streams they draw from.

An honest-but-curious server knows the client's architecture, not its
weights, so no attacker draw may come from a session's streams:
``default_rng(seed)`` for the weights and ``default_rng([seed, epoch])``
for the data order. Each attacker draw uses ``default_rng([seed, tag,
*keys])`` instead, with a tag far beyond any epoch count.
"""

import zlib

STREAM_TAGS = {name: zlib.crc32(name.encode()) for name in (
    "inversion-clone", "inversion-input", "label-clone", "stitched-head")}


def attacker_seed(seed: int, stream: str, *keys: int) -> list[int]:
    """The ``default_rng`` seed of one of an attacker's ``STREAM_TAGS``
    streams, for the run seed ``seed`` and any further ``keys``."""
    return [seed, STREAM_TAGS[stream], *keys]


from . import inversion, labels  # noqa: E402, F401  (import splitlab loads both)
