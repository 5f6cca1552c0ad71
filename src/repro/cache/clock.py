"""Replacement policies: the paper's clock (approximate LRU) and an
exact-LRU alternative used for ablation.

The paper: "We use an approximate LRU replacement algorithm to free up
the blocks (since exact LRU can result in a significant overhead at
each read/write invocation), and preference for replacement is given
to clean blocks over dirty ones."
"""

from __future__ import annotations

from repro.cache.block import BlockState, CacheBlock


class ReplacementPolicy:
    """Interface: pick eviction victims among resident blocks."""

    def touch(self, block: CacheBlock) -> None:  # pragma: no cover
        """Record a reference to a resident block."""
        raise NotImplementedError

    def forget(self, block: CacheBlock) -> None:  # pragma: no cover
        """Drop a block from the policy's tracking."""
        raise NotImplementedError

    def select_victims(
        self, n: int, prefer_clean: bool = True
    ) -> list[CacheBlock]:  # pragma: no cover
        """Pick up to ``n`` eviction victims."""
        raise NotImplementedError


class ClockPolicy(ReplacementPolicy):
    """Second-chance clock sweep over the resident blocks.

    ``touch`` costs O(1) (set the reference bit) — the cheapness on
    the hot path is the whole point versus exact LRU.
    """

    def __init__(self) -> None:
        self._ring: list[CacheBlock] = []
        self._hand = 0
        #: Blocks the sweeps walked, and the ring length each sweep
        #: started with, summed over calls (their ratio is the cost of
        #: a sweep in ring lengths).
        self.blocks_examined = 0
        self.ring_blocks = 0

    def touch(self, block: CacheBlock) -> None:
        """Set the reference bit (O(1) hot path; ring membership is
        managed by admit()/forget(), called once per residency)."""
        block.refbit = True

    def admit(self, block: CacheBlock) -> None:
        """Register a newly resident block with the sweep ring."""
        self._ring.append(block)
        block.refbit = True

    def forget(self, block: CacheBlock) -> None:
        """Remove a block from the ring, fixing the hand."""
        try:
            idx = self._ring.index(block)
        except ValueError:
            return
        self._ring.pop(idx)
        if idx < self._hand:
            self._hand -= 1
        if self._ring:
            self._hand %= len(self._ring)
        else:
            self._hand = 0

    def select_victims(
        self, n: int, prefer_clean: bool = True
    ) -> list[CacheBlock]:
        """Sweep the ring, giving referenced blocks a second chance.

        With ``prefer_clean``, dirty blocks get an extra pass of grace:
        they are only chosen once no clean candidate remains.

        One walk of the ring stands in for the classic two
        revolutions (DESIGN.md §8): the second revolution could only
        pick blocks whose reference bit the first one cleared, so it
        walks just those, in ring order.  The hand ends where the
        two-revolution sweep would have left it.
        """
        if n <= 0 or not self._ring:
            return []
        ring = self._ring
        hand = self._hand
        ring_len = len(ring)
        rotated = ring[hand:] + ring[:hand]
        self.ring_blocks += ring_len
        victims: list[CacheBlock] = []
        dirty_fallback: list[CacheBlock] = []
        cleared: list[int] = []
        clean = BlockState.CLEAN
        dirty = BlockState.DIRTY
        pick = victims.append
        for pos, block in enumerate(rotated):
            state = block.state
            if block.pins or (state is not clean and state is not dirty):
                continue
            if block.refbit:
                block.refbit = False  # second chance
                cleared.append(pos)
            elif prefer_clean and state is dirty:
                dirty_fallback.append(block)
            else:
                pick(block)
                if len(victims) >= n:
                    self.blocks_examined += pos + 1
                    self._hand = (hand + pos + 1) % ring_len
                    return victims
        for i, pos in enumerate(cleared):
            block = rotated[pos]
            if prefer_clean and block.state is dirty:
                dirty_fallback.append(block)
                continue
            pick(block)
            if len(victims) >= n:
                self.blocks_examined += ring_len + i + 1
                self._hand = (hand + pos + 1) % ring_len
                return victims
        # Unfilled: the hand went all the way round (once when nothing
        # was eligible, twice otherwise) and is back where it started.
        self.blocks_examined += ring_len + len(cleared)
        victims += dirty_fallback[: n - len(victims)]
        return victims

    def __len__(self) -> int:
        return len(self._ring)


class ExactLRUPolicy(ReplacementPolicy):
    """True LRU ordering (ablation baseline).

    ``touch`` is O(1) amortised via dict move-to-end, but the point of
    the ablation is hit-path *cost modelling*, handled by the manager
    charging a higher touch cost when this policy is configured.
    """

    def __init__(self) -> None:
        self._order: dict[CacheBlock, None] = {}

    def touch(self, block: CacheBlock) -> None:
        """Move the block to most-recently-used."""
        self._order.pop(block, None)
        self._order[block] = None

    def admit(self, block: CacheBlock) -> None:
        """Register a newly resident block."""
        self.touch(block)

    def forget(self, block: CacheBlock) -> None:
        """Drop a block from the recency order."""
        self._order.pop(block, None)

    def select_victims(
        self, n: int, prefer_clean: bool = True
    ) -> list[CacheBlock]:
        """Oldest-first victims, clean preferred."""
        victims: list[CacheBlock] = []
        dirty_fallback: list[CacheBlock] = []
        for block in self._order:  # oldest first
            if len(victims) >= n:
                break
            if not block.is_evictable:
                continue
            if prefer_clean and block.state is BlockState.DIRTY:
                dirty_fallback.append(block)
                continue
            victims.append(block)
        for block in dirty_fallback:
            if len(victims) >= n:
                break
            victims.append(block)
        return victims

    def __len__(self) -> int:
        return len(self._order)
