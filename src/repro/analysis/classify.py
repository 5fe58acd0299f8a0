"""Transaction classification (Figure 1 and the EOS category labels).

Two classification layers are implemented:

* **Type distribution** — counting transactions/operations/actions by their
  chain-level type name and grouping them the way Figure 1 does
  (P2P transaction / account actions / other actions for EOS system actions;
  operation kinds for Tezos; transaction types for XRP).
* **EOS application categories** — EOS actions on non-system contracts have
  arbitrary names, so the paper labels the top contracts by hand and assigns
  each transaction the category of the contract it targets (Exchange,
  Betting, Games, Pornography, Tokens, Others).  The same label table drives
  :func:`classify_eos_category`.

Both layers are single-pass accumulators over the columnar
:class:`~repro.common.columns.TxFrame`: run one on a frame or view
(``TypeDistributionAccumulator().run(frame)``), or read its figure from a
report by name (``full_report(frame).chains[chain]["type_distribution"]``).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.common.columns import CHAIN_CODES, CHAIN_ORDER, TxFrame
from repro.common.records import ChainId, TransactionRecord
from repro.analysis.engine import Accumulator, BatchStep, FigureSpec, RowIndices, config_digest
from repro.analysis.vectorized import add_counts, block_columns, count_codes, unique_counts_ordered
from repro.common.statecodec import (
    pack_code_table,
    pack_str_table,
    restore_code_table,
    restore_str_table,
)
from repro.eos.actions import (
    APPLICATION_CATEGORIES,
    CATEGORY_OTHERS,
    SystemActionGroup,
    classify_system_action,
)

#: Figure 1 group labels keyed by the EOS system-action group.
EOS_FIGURE1_GROUPS: Dict[SystemActionGroup, str] = {
    SystemActionGroup.P2P_TRANSACTION: "P2P transaction",
    SystemActionGroup.ACCOUNT_ACTION: "Account actions",
    SystemActionGroup.OTHER_ACTION: "Other actions",
    SystemActionGroup.USER_DEFINED: "Others",
}

#: Figure 1 group labels for Tezos operation kinds.
TEZOS_FIGURE1_GROUPS: Dict[str, str] = {
    "Transaction": "P2P transaction",
    "Origination": "Account actions",
    "Reveal": "Account actions",
    "Activate": "Account actions",
    "Endorsement": "Other actions",
    "Delegation": "Other actions",
    "Reveal nonce": "Other actions",
    "Ballot": "Other actions",
    "Proposals": "Other actions",
    "Double baking evidence": "Other actions",
}

#: Figure 1 group labels for XRP transaction types.
XRP_FIGURE1_GROUPS: Dict[str, str] = {
    "Payment": "P2P transaction",
    "EscrowFinish": "P2P transaction",
    "TrustSet": "Account actions",
    "AccountSet": "Account actions",
    "SignerListSet": "Account actions",
    "SetRegularKey": "Account actions",
    "OfferCreate": "Other actions",
    "OfferCancel": "Other actions",
    "EscrowCreate": "Other actions",
    "EscrowCancel": "Other actions",
    "PaymentChannelClaim": "Other actions",
    "PaymentChannelCreate": "Other actions",
    "EnableAmendment": "Other actions",
}

_EOS_CODE = CHAIN_CODES[ChainId.EOS]
_TEZOS_CODE = CHAIN_CODES[ChainId.TEZOS]


class TypeDistributionRow(NamedTuple):
    """One row of the Figure 1 table."""

    chain: ChainId
    group: str
    type_name: str
    count: int
    share: float


def figure1_group(chain: ChainId, type_name: str, contract: str) -> str:
    """The Figure 1 group of a row's chain, type and contract.

    Only the EOS grouping depends on the contract: system actions group by
    name, and every action on a user contract is "Others".
    """
    if chain is ChainId.EOS:
        return EOS_FIGURE1_GROUPS[classify_system_action(type_name, contract)]
    if chain is ChainId.TEZOS:
        return TEZOS_FIGURE1_GROUPS.get(type_name, "Other actions")
    return XRP_FIGURE1_GROUPS.get(type_name, "Other actions")


class TypeDistributionAccumulator(Accumulator):
    """Single-pass Figure 1: counts by (chain, group, type).

    The scan counts integer (chain, type, contract) triples with one
    packed-code histogram per block; classification into Figure 1 groups
    and string materialisation happen once per *distinct* triple at
    :meth:`finalize` — not once per row.
    """

    name = "type_distribution"

    def _reset(self, frame: TxFrame) -> None:
        self._frame = frame
        self._counts: Counter = Counter()

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: packed-code histogram per block."""
        self._reset(frame)
        counts = self._counts
        chain_codes = frame.ndarray("chain_code")
        type_codes = frame.ndarray("type_code")
        contract_codes = frame.ndarray("contract_code")
        sizes = (len(CHAIN_ORDER), len(frame.types), len(frame.accounts))

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            count_codes(
                counts,
                block_columns(rows, chain_codes, type_codes, contract_codes),
                sizes,
            )

        return consume

    def export_state(self) -> Dict:
        return {"counts": pack_code_table(self._counts, 3)}

    def restore_state(self, payload: Dict) -> None:
        restore_code_table(self._counts, payload["counts"])

    def finalize(self) -> List[TypeDistributionRow]:
        frame = self._frame
        type_values = frame.types.values
        account_values = frame.accounts.values
        merged: Counter = Counter()
        totals: Counter = Counter()
        for (chain_code, type_code, contract_code), count in self._counts.items():
            chain = CHAIN_ORDER[chain_code]
            type_name = type_values[type_code]
            group = figure1_group(chain, type_name, account_values[contract_code])
            # EOS user-defined actions collapse into one "Others" row, as in
            # the paper: their names are contract-specific.
            if chain is ChainId.EOS and group == "Others":
                type_name = "Others"
            merged[(chain, group, type_name)] += count
            totals[chain] += count
        rows = [
            TypeDistributionRow(
                chain=chain,
                group=group,
                type_name=type_name,
                count=count,
                share=count / totals[chain] if totals[chain] else 0.0,
            )
            for (chain, group, type_name), count in merged.items()
        ]
        rows.sort(key=lambda row: (row.chain.value, row.group, -row.count, row.type_name))
        return rows


def _type_rows_json(rows: List[TypeDistributionRow]) -> List[Dict[str, object]]:
    return [
        {
            "group": row.group,
            "type": row.type_name,
            "count": row.count,
            "share": round(row.share, 6),
        }
        for row in rows
    ]


def _type_rows_text(rows: List[TypeDistributionRow]) -> List[str]:
    """The four largest shares (ties in table order): the rows are sorted by
    group, so a plain ``[:4]`` would show the first group, not the headline."""
    largest = sorted(rows, key=lambda row: -row.share)[:4]
    return [f"{row.group:18s} {row.type_name:22s} {row.share:6.1%}" for row in largest]


TYPE_DISTRIBUTION_FIGURE = FigureSpec(
    name=TypeDistributionAccumulator.name,
    chains=CHAIN_ORDER,
    factory=lambda chain, config: TypeDistributionAccumulator(),
    to_json=_type_rows_json,
    render=_type_rows_text,
)


def distribution_as_mapping(
    rows: Iterable[TypeDistributionRow], chain: ChainId
) -> Dict[str, float]:
    """Type-name → share mapping of one chain's Figure 1 rows."""
    return {row.type_name: row.share for row in rows if row.chain is chain}


# -- EOS application categories (Figure 3a / §3.2) -------------------------------------
def classify_eos_category(
    record: TransactionRecord,
    label_table: Optional[Mapping[str, str]] = None,
) -> str:
    """Category of one EOS action, following the paper's manual label table.

    The category is determined by the contract the action targets; unlabelled
    contracts fall into "Others".  Transfers carried by ``eosio.token`` on
    behalf of a labelled application (for instance bets sent to
    ``betdicetasks``) are attributed to the token category, matching the
    paper's classification where the EIDOS transfers show up as "Tokens".
    """
    labels = label_table if label_table is not None else APPLICATION_CATEGORIES
    if record.chain is not ChainId.EOS:
        raise ValueError("classify_eos_category only applies to EOS records")
    if record.contract in labels:
        return labels[record.contract]
    return CATEGORY_OTHERS


def eos_category_lookup(
    frame: TxFrame, label_table: Optional[Mapping[str, str]] = None
) -> Dict[int, str]:
    """Contract-code → category table for one frame's interned contracts.

    Classifying by code turns the per-row category decision into a list
    index, which is what makes the category accumulators (and the Figure 3a
    throughput categorizer) cheap inside the shared pass.
    """
    labels = label_table if label_table is not None else APPLICATION_CATEGORIES
    return {
        code: labels.get(contract, CATEGORY_OTHERS)
        for code, contract in enumerate(frame.accounts.values)
    }


class CategoryDistributionAccumulator(Accumulator):
    """Single-pass EOS application-category shares (Figure 3a mix)."""

    name = "category_distribution"

    def __init__(self, label_table: Optional[Mapping[str, str]] = None):
        self.label_table = label_table

    def _reset(self, frame: TxFrame) -> None:
        self._frame = frame
        self._counts: Counter = Counter()

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: (chain, contract) packed-code histogram."""
        self._reset(frame)
        counts = self._counts
        chain_codes = frame.ndarray("chain_code")
        contract_codes = frame.ndarray("contract_code")
        sizes = (len(CHAIN_ORDER), len(frame.accounts))

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            count_codes(
                counts, block_columns(rows, chain_codes, contract_codes), sizes
            )

        return consume

    def export_state(self) -> Dict:
        return {"counts": pack_code_table(self._counts, 2)}

    def restore_state(self, payload: Dict) -> None:
        restore_code_table(self._counts, payload["counts"])

    def config_signature(self) -> tuple:
        table = (
            self.label_table if self.label_table is not None else APPLICATION_CATEGORIES
        )
        return (type(self).__qualname__, self.name, config_digest(dict(table)))

    def finalize(self) -> Dict[str, float]:
        labels = (
            self.label_table if self.label_table is not None else APPLICATION_CATEGORIES
        )
        contract_values = self._frame.accounts.values
        merged: Dict[str, int] = {}
        total = 0
        for (chain_code, contract_code), count in self._counts.items():
            if chain_code != _EOS_CODE:
                continue
            category = labels.get(contract_values[contract_code], CATEGORY_OTHERS)
            merged[category] = merged.get(category, 0) + count
            total += count
        if total == 0:
            return {}
        return {category: count / total for category, count in sorted(merged.items())}


CATEGORY_DISTRIBUTION_FIGURE = FigureSpec(
    name=CategoryDistributionAccumulator.name,
    chains=(ChainId.EOS,),
    factory=lambda chain, config: CategoryDistributionAccumulator(),
)


class ContractBreakdownAccumulator(Accumulator):
    """Single-pass per-action breakdown of one EOS contract (Figure 4 rows)."""

    name = "contract_breakdown"

    def __init__(self, contract: str):
        self.contract = contract

    def _reset(self, frame: TxFrame) -> None:
        self._frame = frame
        self._counts: Dict[int, int] = {}

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: mask the contract's rows, histogram the types."""
        self._reset(frame)
        counts = self._counts
        chain_codes = frame.ndarray("chain_code")
        receiver_codes = frame.ndarray("receiver_code")
        type_codes = frame.ndarray("type_code")
        contract_code = frame.accounts.code(self.contract)
        eos = _EOS_CODE

        if contract_code is None:
            return lambda rows: None

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            chain, receiver, types = block_columns(
                rows, chain_codes, receiver_codes, type_codes
            )
            mask = (chain == eos) & (receiver == contract_code)
            if mask.any():
                count_codes(counts, (types[mask],), (len(frame.types),))

        return consume

    def export_state(self) -> Dict:
        return {"counts": pack_code_table(self._counts, 1)}

    def restore_state(self, payload: Dict) -> None:
        restore_code_table(self._counts, payload["counts"])

    def config_signature(self) -> tuple:
        return (type(self).__qualname__, self.name, self.contract)

    def finalize(self) -> List[Tuple[str, int, float]]:
        type_values = self._frame.types.values
        total = sum(self._counts.values())
        breakdown = [
            (type_values[code], count, count / total if total else 0.0)
            for code, count in self._counts.items()
        ]
        breakdown.sort(key=lambda item: (-item[1], item[0]))
        return breakdown


class TezosCategoryAccumulator(Accumulator):
    """Single-pass Tezos category shares (consensus/governance/manager)."""

    name = "tezos_category_distribution"

    def _reset(self, frame: TxFrame) -> None:
        self._counts: Dict[str, int] = {}

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """The Tezos rows' projected ``category`` codes, counted in first-seen
        order (``-1``, no category, is ``manager``)."""
        self._reset(frame)
        counts = self._counts
        chain_codes = frame.ndarray("chain_code")
        categories = frame.projected()["category"]
        strings = frame.meta_strings.values
        tezos = _TEZOS_CODE

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            chain, codes = block_columns(rows, chain_codes, categories)
            codes = codes[chain == tezos]
            if len(codes):
                uniques, totals = unique_counts_ordered(codes)
                names = [strings[code] if code >= 0 else "manager" for code in uniques.tolist()]
                add_counts(counts, names, totals.tolist())

        return consume

    def export_state(self) -> Dict:
        return {"counts": pack_str_table(self._counts)}

    def restore_state(self, payload: Dict) -> None:
        restore_str_table(self._counts, payload["counts"])

    def finalize(self) -> Dict[str, float]:
        counts = self._counts
        total = sum(counts.values())
        if total == 0:
            return {}
        return {category: count / total for category, count in sorted(counts.items())}


TEZOS_CATEGORY_FIGURE = FigureSpec(
    name=TezosCategoryAccumulator.name,
    chains=(ChainId.TEZOS,),
    factory=lambda chain, config: TezosCategoryAccumulator(),
)
