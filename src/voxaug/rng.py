"""Deterministic random streams for reproducible batch augmentation.

Every random draw in this package flows through a :class:`RandomStream`.
A stream is identified by a master seed plus a path of tokens (subject id,
operator index, ...). The identity is hashed into a 128-bit Philox key, so
a stream's draws depend only on (seed, path), never on when or where in a
batch it is consumed. Deriving per-subject and per-operator substreams
therefore makes batch output independent of subject order and thread count.
"""

import hashlib

import numpy as np

Token = int | str


def _stream_key(seed: int, path: tuple[Token, ...]) -> int:
    """Hash (seed, path) into a 128-bit Philox key.

    Tokens are length-prefixed and type-tagged so that e.g. the paths
    ("ab", "c") and ("a", "bc") never collide.
    """
    h = hashlib.sha256()
    h.update(b"voxaug-stream")
    h.update(int(seed).to_bytes(16, "little", signed=True))
    for tok in path:
        enc = str(tok).encode("utf-8")
        tag = b"i" if isinstance(tok, int) else b"s"
        h.update(tag + len(enc).to_bytes(4, "little") + enc)
    return int.from_bytes(h.digest()[:16], "little")


class RandomStream:
    """A named, counter-based random stream.

    Draw methods are stateful (they advance an underlying Philox generator),
    but the generator's starting point is a pure function of (seed, path).
    Use :meth:`substream` to split off independent child streams; two streams
    with different paths never share draws.
    """

    def __init__(self, seed: int, path: tuple[Token, ...] = ()):
        self.seed = int(seed)
        if not -(2**127) <= self.seed < 2**127:  # the key hashes it as 16 signed bytes
            raise ValueError(f"seed must be in [-2**127, 2**127), got {self.seed}")
        self.path = tuple(path)
        for tok in self.path:
            if isinstance(tok, bool) or not isinstance(tok, (int, str)):
                raise TypeError(f"stream tokens must be int or str, got {tok!r}")
        self._gen: np.random.Generator | None = None

    def substream(self, *tokens: Token) -> "RandomStream":
        """Derive an independent child stream keyed by the extra tokens."""
        return RandomStream(self.seed, self.path + tokens)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = _stream_key(self.seed, self.path)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def derived_seed(self) -> int:
        """A stable 63-bit integer seed derived from this stream's identity."""
        return _stream_key(self.seed, self.path) & (2**63 - 1)

    # thin draw façade so callers never touch numpy Generator directly

    def random(self) -> float:
        return float(self.generator.random())

    def uniform(self, low: float, high: float, size=None):
        out = self.generator.uniform(low, high, size)
        return float(out) if size is None else out

    def normal(self, loc: float, scale: float, size=None):
        out = self.generator.normal(loc, scale, size)
        return float(out) if size is None else out

    def integers(self, low: int, high: int, size=None):
        out = self.generator.integers(low, high, size)
        return int(out) if size is None else out

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path!r})"
