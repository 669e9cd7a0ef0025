"""Counter-based uniforms for the vector engine.

The scalar engines consume one shared ``random.Random`` stream in draw
order, which ties every draw's randomness to everything drawn before it
— exactly what makes a sharded run differ from a serial one.  The
vector engine instead derives every draw's uniforms *positionally* from
``numpy.random.Philox``, a counter-based generator:

* the **key** combines the solve-level base key (64 bits drawn once per
  solve from the seeded solver RNG) with the start node's index —
  ``(base_key << 64) | start_index`` — so every start owns an
  independent stream;
* the **counter** addresses the draw's position in that stream: draw
  ``d`` of a start owns the ``width`` doubles starting at stream
  position ``d × width``.  ``Generator(Philox(key, counter=c)).random``
  emits the double stream starting at position ``4·c`` (Philox-4x64
  yields four 64-bit words per counter block, one double each), so with
  ``width`` a multiple of 4 the counter is simply ``d × width / 4``.

A draw's uniforms are therefore a pure function of
``(base_key, start index, draw position)`` — independent of every other
draw, of batch boundaries, and of how a stage's draws are sharded
across workers.  That is the whole within-engine determinism story:
serial and stage-sharded vector runs consume identical randomness.

:class:`PhiloxStreams` reads every start's stream through one bit
generator.  Building ``Philox(key=..., counter=...)`` seeds a
``SeedSequence`` the key then overrides, which costs about ten times
what assigning the generator's ``state`` does; a re-keyed generator
holds exactly the words a fresh one would (key, counter, an empty
buffer), so it emits the same doubles.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MASK64", "uniform_width", "philox_key", "PhiloxStreams", "draw_uniforms"
]

MASK64 = (1 << 64) - 1


def uniform_width(k: int) -> int:
    """Uniforms reserved per draw: one per pick, padded to Philox blocks.

    A draw makes at most ``k`` picks; the width is padded up to a
    multiple of 4 (one Philox-4x64 counter block = 4 doubles) so draw
    ``d``'s block starts exactly at counter ``d · width / 4``.  Derived
    from ``k`` alone — never from the seed size — so every draw of a
    solve shares one width whatever its start's seed looks like.
    """
    return max(4, ((k + 3) // 4) * 4)


def philox_key(base_key: int, start_key: int) -> int:
    """128-bit Philox key for one start node's draw stream."""
    return ((base_key & MASK64) << 64) | (start_key & MASK64)


class PhiloxStreams:
    """Uniform rows of every start under one base key, one generator."""

    def __init__(self, base_key: int, width: int) -> None:
        if width % 4:
            raise ValueError(f"width must be a multiple of 4, got {width}")
        self.base_key = base_key
        self.width = width
        self._bits = np.random.Philox(0)  # rows() overwrites its state
        self._random = np.random.Generator(self._bits).random

    def rows(self, start_key: int, first_draw: int, count: int) -> np.ndarray:
        """Uniforms for draws ``[first_draw, first_draw + count)`` of a start.

        Returns a ``(count, width)`` float64 matrix whose row ``i`` holds
        draw ``first_draw + i``'s uniforms.  Any sub-range of a start's
        draws yields the identical rows — the counter seeks straight to
        ``first_draw``'s block.
        """
        key = philox_key(self.base_key, start_key)
        counter = first_draw * (self.width // 4)
        # Little-endian 64-bit words, as Philox(key=, counter=) splits them.
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": [(counter >> (64 * i)) & MASK64 for i in range(4)],
                "key": [key & MASK64, key >> 64],
            },
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._random(count * self.width).reshape(count, self.width)


def draw_uniforms(
    base_key: int, start_key: int, first_draw: int, count: int, width: int
) -> np.ndarray:
    """One start's uniform rows (:meth:`PhiloxStreams.rows`) on their own."""
    return PhiloxStreams(base_key, width).rows(start_key, first_draw, count)
