"""Unit tests for the clock (approximate LRU) and exact-LRU policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import BlockState, CacheBlock
from repro.cache.clock import ClockPolicy, ExactLRUPolicy
from repro.sim import Environment


def _clean_block(env, index):
    b = CacheBlock(index, 4096)
    b.assign((1, index), env.event())
    b.make_ready()
    b.refbit = False
    return b


def _dirty_block(env, index):
    b = CacheBlock(index, 4096)
    b.assign((1, index), env.event())
    b.write(0, 10, None)
    b.refbit = False
    return b


@pytest.fixture(params=[ClockPolicy, ExactLRUPolicy])
def policy_cls(request):
    return request.param


def test_empty_policy_returns_nothing(policy_cls):
    p = policy_cls()
    assert p.select_victims(5) == []
    assert len(p) == 0


def test_select_nonpositive(policy_cls):
    env = Environment()
    p = policy_cls()
    p.admit(_clean_block(env, 0))
    assert p.select_victims(0) == []


def test_admit_and_select(policy_cls):
    env = Environment()
    p = policy_cls()
    blocks = [_clean_block(env, i) for i in range(5)]
    for b in blocks:
        p.admit(b)
        b.refbit = False
    victims = p.select_victims(3)
    assert len(victims) == 3
    assert all(v in blocks for v in victims)


def test_forget_removes(policy_cls):
    env = Environment()
    p = policy_cls()
    b = _clean_block(env, 0)
    p.admit(b)
    p.forget(b)
    assert p.select_victims(1) == []
    p.forget(b)  # idempotent


def test_pinned_and_pending_never_selected(policy_cls):
    env = Environment()
    p = policy_cls()
    pinned = _clean_block(env, 0)
    pinned.pin()
    pending = CacheBlock(1, 4096)
    pending.assign((1, 1), env.event())
    pending.refbit = False
    for b in (pinned, pending):
        p.admit(b)
        b.refbit = False
    assert p.select_victims(2) == []


def test_clean_preferred_over_dirty(policy_cls):
    env = Environment()
    p = policy_cls()
    dirty = _dirty_block(env, 0)
    clean = _clean_block(env, 1)
    for b in (dirty, clean):
        p.admit(b)
        b.refbit = False
    victims = p.select_victims(1, prefer_clean=True)
    assert victims == [clean]


def test_dirty_fallback_when_no_clean(policy_cls):
    env = Environment()
    p = policy_cls()
    dirty = _dirty_block(env, 0)
    p.admit(dirty)
    dirty.refbit = False
    assert p.select_victims(1, prefer_clean=True) == [dirty]


def test_prefer_clean_false_takes_any(policy_cls):
    env = Environment()
    p = policy_cls()
    dirty = _dirty_block(env, 0)
    p.admit(dirty)
    dirty.refbit = False
    assert p.select_victims(1, prefer_clean=False) == [dirty]


# -- clock specifics ------------------------------------------------------


def test_clock_second_chance():
    env = Environment()
    p = ClockPolicy()
    a = _clean_block(env, 0)
    b = _clean_block(env, 1)
    p.admit(a)  # admit sets refbit
    p.admit(b)
    b.refbit = False  # a referenced, b not
    victims = p.select_victims(1)
    assert victims == [b]  # a got its second chance
    assert a.refbit is False  # ...but lost its reference bit


def test_clock_touch_sets_refbit_only():
    env = Environment()
    p = ClockPolicy()
    a = _clean_block(env, 0)
    p.admit(a)
    a.refbit = False
    p.touch(a)
    assert a.refbit
    assert len(p) == 1  # no duplicate ring entries


def test_clock_forget_adjusts_hand():
    env = Environment()
    p = ClockPolicy()
    blocks = [_clean_block(env, i) for i in range(4)]
    for b in blocks:
        p.admit(b)
        b.refbit = False
    p.select_victims(1)  # advances hand
    p.forget(blocks[0])
    # remaining selections still work without index errors
    victims = p.select_victims(3)
    assert len(victims) == 3 - 1 + 1  # 3 remaining blocks


def test_clock_early_exit_when_nothing_evictable():
    env = Environment()
    p = ClockPolicy()
    blocks = [_clean_block(env, i) for i in range(10)]
    for b in blocks:
        p.admit(b)
        b.refbit = False
        b.pin()
    assert p.select_victims(5) == []


# -- exact LRU specifics ----------------------------------------------------


def test_exact_lru_order():
    env = Environment()
    p = ExactLRUPolicy()
    a, b, c = (_clean_block(env, i) for i in range(3))
    for blk in (a, b, c):
        p.admit(blk)
    p.touch(a)  # order now: b, c, a
    assert p.select_victims(2) == [b, c]


def test_exact_lru_victims_in_lru_order():
    env = Environment()
    p = ExactLRUPolicy()
    blocks = [_clean_block(env, i) for i in range(5)]
    for b in blocks:
        p.admit(b)
    assert p.select_victims(5) == blocks


# -- differential test against the two-revolution sweep ----------------------


def _reference_select_victims(
    policy: ClockPolicy, n: int, prefer_clean: bool = True
) -> list[CacheBlock]:
    """The classic two-revolution sweep, kept as the oracle.

    This is the sweep ``ClockPolicy.select_victims`` replaced, line for
    line, except that already-picked blocks go into a local set instead
    of carrying a per-sweep generation stamp.
    """
    if n <= 0 or not policy._ring:
        return []
    victims: list[CacheBlock] = []
    dirty_fallback: list[CacheBlock] = []
    marked: set[CacheBlock] = set()
    ring = policy._ring
    hand = policy._hand
    ring_len = len(ring)
    rotated = ring[hand:] + ring[:hand]
    processed = 0
    n_picked = 0
    n_fallback = 0
    clean = BlockState.CLEAN
    dirty = BlockState.DIRTY
    pick_append = victims.append
    fallback_append = dirty_fallback.append
    filled = False
    for _revolution in (0, 1):
        useful_in_revolution = 0
        for block in rotated:
            processed += 1
            state = block.state
            if block.pins or (state is not clean and state is not dirty):
                continue
            if block.refbit:
                block.refbit = False  # second chance
                useful_in_revolution += 1
                continue
            if block in marked:
                continue
            marked.add(block)
            if prefer_clean and state is dirty:
                useful_in_revolution += 1
                n_fallback += 1
                if n_fallback <= n:
                    fallback_append(block)
                continue
            pick_append(block)
            n_picked += 1
            useful_in_revolution += 1
            if n_picked >= n:
                filled = True
                break
        if filled or useful_in_revolution == 0:
            break
    policy._hand = (hand + processed) % ring_len
    for block in dirty_fallback:
        if n_picked >= n:
            break
        victims.append(block)
        n_picked += 1
    return victims


_STATES = (BlockState.PENDING, BlockState.CLEAN, BlockState.DIRTY)

_block_spec = st.tuples(
    st.sampled_from(_STATES), st.booleans(), st.booleans()
)  # (state, pinned, refbit)

_op = st.one_of(
    st.tuples(
        st.just("select"), st.integers(0, 10_000), st.booleans()
    ),
    st.tuples(st.just("admit"), _block_spec),
    st.tuples(st.just("forget"), st.integers(0, 10_000)),
    st.tuples(st.just("touch"), st.integers(0, 10_000)),
    st.tuples(st.just("pin"), st.integers(0, 10_000)),
    st.tuples(
        st.just("state"), st.integers(0, 10_000), st.sampled_from(_STATES)
    ),
)


class _Twins:
    """Two clock policies over mirrored blocks: the sweep under test
    drives ``new``, the oracle drives ``ref``."""

    def __init__(self) -> None:
        self.new = ClockPolicy()
        self.ref = ClockPolicy()
        #: Each block under ``new`` -> its mirror under ``ref``.
        self.twin: dict[CacheBlock, CacheBlock] = {}

    def admit(self, spec) -> None:
        state, pinned, refbit = spec
        a, b = (CacheBlock(len(self.twin), 4096) for _ in range(2))
        for policy, block in ((self.new, a), (self.ref, b)):
            block.key = (1, block.index)
            block.state = state
            block.pins = int(pinned)
            policy.admit(block)
            block.refbit = refbit
        self.twin[a] = b

    def pair(self, raw: int):
        a = self.new._ring[raw % len(self.new._ring)]
        return a, self.twin[a]

    def apply(self, op) -> None:
        kind = op[0]
        if kind == "admit":
            self.admit(op[1])
            return
        if kind == "select":
            self.select(op[1] % (len(self.new) + 3), op[2])
            return
        if not self.new._ring:
            return
        a, b = self.pair(op[1])
        if kind == "forget":
            self.new.forget(a)
            self.ref.forget(b)
        elif kind == "touch":
            self.new.touch(a)
            self.ref.touch(b)
        elif kind == "pin":
            a.pins = b.pins = 1 - a.pins
        else:
            a.state = b.state = op[2]

    def select(self, n: int, prefer_clean: bool) -> None:
        got = self.new.select_victims(n, prefer_clean=prefer_clean)
        want = _reference_select_victims(self.ref, n, prefer_clean)
        assert len(got) == len(want)
        assert all(self.twin[a] is b for a, b in zip(got, want))
        assert self.new._hand == self.ref._hand
        assert all(a.refbit == b.refbit for a, b in self.twin.items())


@settings(max_examples=300, deadline=None)
@given(
    ring=st.lists(_block_spec, max_size=40),
    hand=st.integers(0, 10_000),
    calls=st.lists(
        st.tuples(st.integers(0, 10_000), st.booleans()), min_size=1, max_size=4
    ),
)
def test_clock_sweep_matches_reference_on_random_rings(ring, hand, calls):
    twins = _Twins()
    for spec in ring:
        twins.admit(spec)
    if ring:
        twins.new._hand = twins.ref._hand = hand % len(ring)
    for n_raw, prefer_clean in calls:
        twins.select(n_raw % (len(ring) + 3), prefer_clean)


@settings(max_examples=300, deadline=None)
@given(
    ring=st.lists(_block_spec, max_size=24),
    ops=st.lists(_op, max_size=40),
)
def test_clock_sweep_matches_reference_under_interleaved_ops(ring, ops):
    twins = _Twins()
    for spec in ring:
        twins.admit(spec)
    for op in ops:
        twins.apply(op)
    twins.select(len(twins.new) + 2, True)
    twins.select(len(twins.new) + 2, False)


def test_clock_sweep_walks_the_ring_once_when_dirty_blocks_fall_back():
    env = Environment()
    p = ClockPolicy()
    blocks = [_dirty_block(env, i) for i in range(10)]
    for b in blocks:
        p.admit(b)
        b.refbit = False
    blocks[3].refbit = True
    # fallback order is the order the sweeps reached the blocks: the
    # referenced block only qualifies on the second pass
    assert p.select_victims(4) == [blocks[i] for i in (0, 1, 2, 4)]
    # revolution 1 walks 10 blocks, "revolution 2" only the one it
    # cleared; the two-revolution sweep walked 20
    assert (p.blocks_examined, p.ring_blocks) == (11, 10)
    assert p._hand == 0
