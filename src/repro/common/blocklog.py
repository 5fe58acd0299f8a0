"""The block history of a simulated chain: an archive node until pruned."""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ChainError
from repro.common.records import BlockRecord


class BlockLog:
    """Blocks by height.  Every block is kept until :meth:`prune`, which the
    streaming consumers call once a block is handed on and never read back."""

    def __init__(self, first_height: int, missing: str) -> None:
        self.blocks: List[BlockRecord] = []
        self._first_height = first_height
        self._pruned = 0
        #: ``"EOS block {} has not been produced"``: the chain's own wording.
        self._missing = missing

    def head(self) -> Optional[BlockRecord]:
        return self.blocks[-1] if self.blocks else None

    def block_at(self, height: int) -> BlockRecord:
        """Fetch a block by height; a pruned height says so."""
        index = height - self._first_height - self._pruned
        if -self._pruned <= index < 0:
            raise ChainError(f"block {height} has been pruned: only the head is kept")
        if not 0 <= index < len(self.blocks):
            raise ChainError(self._missing.format(height))
        return self.blocks[index]

    def prune(self) -> None:
        """Forget every block but the head (the next block links to its id)."""
        self._pruned += max(len(self.blocks) - 1, 0)
        del self.blocks[:-1]
