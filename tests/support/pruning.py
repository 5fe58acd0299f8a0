"""The ``prune()`` contract, one body for the three chain simulators.

A chain is an archive node until ``prune()``; afterwards it holds its head
and nothing else, says so for every earlier height, and goes on exactly as
an unpruned twin driven with the same inputs.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.common.errors import ChainError
from repro.common.records import BlockRecord


def check_prune_contract(
    make_chain: Callable[[], object],
    produce: Callable[[object, int], BlockRecord],
    blocks: int = 5,
) -> None:
    """``make_chain()`` builds identical chains; ``produce(chain, n)`` adds block ``n``."""
    empty = make_chain()
    empty.prune()
    assert empty.head() is None and empty.blocks == []

    single = make_chain()
    only = produce(single, 0)
    single.prune()
    assert single.blocks == [only]
    assert single.head() is only and single.block_at(only.height) is only

    pruned, twin = make_chain(), make_chain()
    for number in range(blocks):
        produce(pruned, number)
        produce(twin, number)
    head = pruned.head()
    first = head.height - blocks + 1

    def assert_only_head_is_served() -> None:
        assert pruned.blocks == [head]
        assert pruned.head() is head and pruned.block_at(head.height) is head
        for height in range(first, head.height):
            with pytest.raises(ChainError, match="pruned"):
                pruned.block_at(height)
        # Outside what was ever produced the old wording stays.
        for height in (first - 1, head.height + 1):
            with pytest.raises(ChainError) as refused:
                pruned.block_at(height)
            assert "pruned" not in str(refused.value)

    pruned.prune()
    assert_only_head_is_served()
    pruned.prune()
    assert_only_head_is_served()

    for number in range(blocks, 2 * blocks):
        assert produce(pruned, number) == produce(twin, number)
    assert pruned.blocks[1].previous_id == head.block_id
    for height in range(head.height, head.height + blocks + 1):
        assert pruned.block_at(height) == twin.block_at(height)
    for height in range(first, head.height):
        assert twin.block_at(height).height == height
        with pytest.raises(ChainError, match="pruned"):
            pruned.block_at(height)

    pruned.prune()
    assert pruned.blocks == [twin.head()]
    with pytest.raises(ChainError, match="pruned"):
        pruned.block_at(head.height)
