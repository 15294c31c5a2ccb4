"""Splittable, counter-based random streams.

Built on numpy's Philox bit generator, which is keyed (not sequential
state) and therefore gives the properties the package needs:

* platform-stable: the same (seed, path) pair yields the same bits on
  any machine, independent of draw order elsewhere;
* splittable: ``split(tag)`` derives an independent child stream from a
  string or integer tag, so e.g. every model parameter can own a stream
  named after it and initialization order stops mattering.

Two runs with the same root seed and the same split tags produce
bit-identical float64 draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _tag_to_word(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    if isinstance(tag, str):
        digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"split tag must be int or str, got {type(tag).__name__}")


class Rng:
    """One random stream; fork sub-streams with :meth:`split`."""

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed) & _MASK64
        self.path = tuple(_path)
        key = np.array([self.seed, self.path[0] if self.path else 0], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, tag) -> "Rng":
        """Derive an independent child stream keyed by ``tag``.

        Splitting does not advance this stream, and children with
        different tags (or the same tag at different depths) never
        collide (up to the 64-bit hash used to fold deep paths).
        """
        word = _tag_to_word(tag)
        if self.path:
            # Philox keys hold seed + one path word; hash deeper paths down.
            folded = _tag_to_word(f"{self.seed}:{self.path[0]}:{word}")
            return Rng(folded)
        return Rng(self.seed, (word,))

    # -- draws ---------------------------------------------------------------

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(loc=mean, scale=std, size=shape)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low=low, high=high, size=shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Uniform ints in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def choice(self, options, shape=()):
        return self._gen.choice(options, size=shape)

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        bg = self._gen.bit_generator.state
        return {
            "seed": self.seed,
            "path": list(self.path),
            "philox": {
                "counter": [int(x) for x in bg["state"]["counter"]],
                "key": [int(x) for x in bg["state"]["key"]],
                "buffer": [int(x) for x in bg["buffer"]],
                "buffer_pos": int(bg["buffer_pos"]),
                "has_uint32": int(bg["has_uint32"]),
                "uinteger": int(bg["uinteger"]),
            },
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "Rng":
        ph = state["philox"]
        words = [state["seed"], *state["path"], *ph["counter"], *ph["key"], *ph["buffer"]]
        words += [ph["buffer_pos"], ph["has_uint32"], ph["uinteger"]]
        if not all(type(w) is int and 0 <= w <= _MASK64 for w in words):  # not bool, not float
            raise ValueError("rng state words must be ints in [0, 2**64)")
        if len(state["path"]) > 1:
            raise ValueError(f"rng path holds at most one word, got {len(state['path'])}")
        rng = cls(state["seed"], tuple(state["path"]))
        bg_state = rng._gen.bit_generator.state
        bg_state["state"]["counter"] = np.array(ph["counter"], dtype=np.uint64)
        bg_state["state"]["key"] = np.array(ph["key"], dtype=np.uint64)
        bg_state["buffer"] = np.array(ph["buffer"], dtype=np.uint64)
        bg_state["buffer_pos"] = ph["buffer_pos"]
        bg_state["has_uint32"] = ph["has_uint32"]
        bg_state["uinteger"] = ph["uinteger"]
        rng._gen.bit_generator.state = bg_state
        return rng

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={self.path})"
