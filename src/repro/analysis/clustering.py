"""XRP account clustering (§3.3).

Large XRP users — exchanges in particular — operate many addresses.  The
paper clusters accounts by the username registered with the ledger explorer
and, for unnamed accounts, by the username of the parent account that
activated them (suffixed ``-- descendant``).  The cluster map feeds the
Figure 8 attribution ("descendants of an account from Huobi") and the
Figure 12 value-flow aggregation.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, NamedTuple, Tuple

from repro.common.columns import TxFrame
from repro.common.records import TransactionRecord
from repro.analysis.engine import Accumulator, BatchStep, RowIndices, Step, config_digest
from repro.analysis.vectorized import block_columns, count_codes
from repro.common.statecodec import pack_code_table, restore_code_table

if TYPE_CHECKING:
    from repro.xrp.accounts import XrpAccountRegistry


class AccountCluster(NamedTuple):
    """A named cluster of addresses controlled by one entity."""

    name: str
    addresses: Tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.addresses)


class AccountClusterer:
    """Builds and applies the username/parent cluster map."""

    def __init__(self, registry: XrpAccountRegistry):
        self.registry = registry
        self._cache: Dict[str, str] = {}

    def cluster_of(self, address: str) -> str:
        """Cluster label for one address (cached)."""
        label = self._cache.get(address)
        if label is None:
            label = self.registry.cluster_identifier(address)
            self._cache[address] = label
        return label

    def clusters(self, addresses: Iterable[str]) -> List[AccountCluster]:
        """Group ``addresses`` into clusters, largest first."""
        grouped: Dict[str, List[str]] = defaultdict(list)
        for address in addresses:
            grouped[self.cluster_of(address)].append(address)
        clusters = [
            AccountCluster(name=name, addresses=tuple(sorted(members)))
            for name, members in grouped.items()
        ]
        clusters.sort(key=lambda cluster: (-cluster.size, cluster.name))
        return clusters

    def is_descendant_of(self, address: str, username: str) -> bool:
        """Whether ``address`` descends from an account named ``username``."""
        label = self.cluster_of(address)
        return label == username or label == f"{username} -- descendant"

    def signature(self) -> str:
        """Checkpoint compatibility key.

        The live clusterer derives labels from the full account registry, so
        its signature digests the registry's address → label view for every
        registered account; an equal signature guarantees every lookup the
        analyses may issue resolves identically.
        """
        labels = {
            address: self.cluster_of(address) for address in self.registry.addresses()
        }
        return config_digest(labels)


class StaticAccountClusterer:
    """A cluster map materialised to a plain address → label dictionary.

    The live :class:`AccountClusterer` needs the XRP account registry, which
    only exists while the workload generator is alive.  Freezing the map
    makes the clustering portable: the CLI's dataset cache persists it as
    JSON and rehydrates analyses without regenerating the ledger.  Addresses
    missing from the map fall back to themselves — the same rule the
    registry applies to unknown accounts.
    """

    def __init__(self, mapping: Mapping[str, str]):
        self._labels: Dict[str, str] = dict(mapping)

    @classmethod
    def from_clusterer(
        cls, clusterer: AccountClusterer, addresses: Iterable[str]
    ) -> "StaticAccountClusterer":
        """Freeze ``clusterer``'s labels for the given addresses."""
        return cls({address: clusterer.cluster_of(address) for address in addresses})

    def cluster_of(self, address: str) -> str:
        return self._labels.get(address, address)

    def to_mapping(self) -> Dict[str, str]:
        """The frozen address → label map (JSON-serialisable)."""
        return dict(self._labels)

    def signature(self) -> str:
        """Checkpoint compatibility key: digest of the frozen label map."""
        return config_digest(self._labels)

    def __len__(self) -> int:
        return len(self._labels)


class ClusterCountsAccumulator(Accumulator):
    """Single-pass per-cluster transaction counts (sender or receiver side).

    Cluster labels are resolved once per interned account code, so the
    per-row cost inside the shared pass is two dict lookups.
    """

    name = "cluster_counts"

    def __init__(self, clusterer: AccountClusterer, side: str = "sender"):
        if side not in ("sender", "receiver"):
            raise ValueError("side must be 'sender' or 'receiver'")
        self.clusterer = clusterer
        self.side = side

    def _reset(self, frame: TxFrame) -> None:
        self._frame = frame
        self._code_counts: Counter = Counter()

    def bind(self, frame: TxFrame) -> Step:
        self._reset(frame)
        counts = self._code_counts
        codes = frame.sender_code if self.side == "sender" else frame.receiver_code

        def step(row: int) -> None:
            counts[codes[row]] += 1

        return step

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: per-account histogram via one unique per block."""
        self._reset(frame)
        counts = self._code_counts
        codes = frame.ndarray(
            "sender_code" if self.side == "sender" else "receiver_code"
        )

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            count_codes(counts, block_columns(rows, codes), (len(frame.accounts),))

        return consume

    def export_state(self) -> Dict:
        return {"counts": pack_code_table(self._code_counts, 1)}

    def restore_state(self, payload: Dict) -> None:
        restore_code_table(self._code_counts, payload["counts"])

    def config_signature(self) -> tuple:
        clusterer_signature = getattr(self.clusterer, "signature", None)
        return (
            type(self).__qualname__,
            self.name,
            self.side,
            clusterer_signature() if clusterer_signature else type(self.clusterer).__qualname__,
        )

    def finalize(self) -> Dict[str, int]:
        frame = self._frame
        account_values = frame.accounts.values
        cluster_of = self.clusterer.cluster_of
        empty = frame.accounts.code("")
        counts: Dict[str, int] = {}
        # Cluster labels resolve once per distinct account code — the scan
        # itself only counted small integers.
        for code, count in self._code_counts.items():
            if code == empty:
                continue
            label = cluster_of(account_values[code])
            counts[label] = counts.get(label, 0) + count
        return counts


def shared_destination_tags(
    records: Iterable[TransactionRecord], minimum_accounts: int = 2
) -> Dict[int, List[str]]:
    """Destination tags used by several distinct senders.

    The Figure 8 accounts betray common control by all using destination tag
    104398 on their payments; this helper surfaces any tag shared by at least
    ``minimum_accounts`` senders.
    """
    tag_senders: Dict[int, set] = defaultdict(set)
    for record in records:
        tag = record.metadata.get("destination_tag")
        if tag is None:
            continue
        tag_senders[int(tag)].add(record.sender)
    return {
        tag: sorted(senders)
        for tag, senders in tag_senders.items()
        if len(senders) >= minimum_accounts
    }


def common_control_evidence(
    records: Iterable[TransactionRecord],
    clusterer: AccountClusterer,
    accounts: Iterable[str],
    parent_username: str = "Huobi Global",
) -> Dict[str, Dict[str, object]]:
    """Evidence table for the Figure 8 common-control argument.

    For each account the table reports whether it descends from the given
    parent username, which destination tags it used, which currencies it
    transacted in, and its OfferCreate share — the four similarity signals
    §3.3 lists.
    """
    materialized = list(records)
    evidence: Dict[str, Dict[str, object]] = {}
    for account in accounts:
        own_records = [record for record in materialized if record.sender == account]
        offer_count = sum(1 for record in own_records if record.type == "OfferCreate")
        tags = sorted(
            {
                int(record.metadata["destination_tag"])
                for record in own_records
                if record.metadata.get("destination_tag") is not None
            }
        )
        currencies = sorted(
            {record.currency for record in own_records if record.currency}
        )
        evidence[account] = {
            "descends_from_parent": clusterer.is_descendant_of(account, parent_username),
            "offer_create_share": offer_count / len(own_records) if own_records else 0.0,
            "destination_tags": tags,
            "currencies": currencies,
        }
    return evidence
