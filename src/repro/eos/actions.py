"""EOS action vocabulary and categorisation.

On EOS, a transaction carries one or more *actions*; each action names the
contract account it targets and the contract-specific action name.  System
contract actions have well-known semantics (``transfer``, ``newaccount``,
``delegatebw``, ...), while regular contracts define arbitrary action names —
which is precisely what makes EOS traffic hard to classify and why the paper
labels the top contracts manually (§3.2).

This module defines the action record the simulator emits plus the canonical
system-action catalogue with the paper's Figure 1 grouping (P2P transaction /
account actions / other actions) and the application-category label table of
Figure 3a — pure data, so the analysis layer can import it without a simulator.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Mapping, NamedTuple

from repro.common.records import EMPTY_MAPPING


class SystemActionGroup(str, enum.Enum):
    """Figure 1 grouping for system-contract actions."""

    P2P_TRANSACTION = "p2p_transaction"
    ACCOUNT_ACTION = "account_action"
    OTHER_ACTION = "other_action"
    USER_DEFINED = "user_defined"


#: System actions listed in Figure 1 with their group.  The "Others" row of
#: Figure 1 covers user-defined actions from non-system contracts.
SYSTEM_ACTION_GROUPS: Dict[str, SystemActionGroup] = {
    # P2P transaction
    "transfer": SystemActionGroup.P2P_TRANSACTION,
    # Account actions
    "bidname": SystemActionGroup.ACCOUNT_ACTION,
    "deposit": SystemActionGroup.ACCOUNT_ACTION,
    "newaccount": SystemActionGroup.ACCOUNT_ACTION,
    "updateauth": SystemActionGroup.ACCOUNT_ACTION,
    "linkauth": SystemActionGroup.ACCOUNT_ACTION,
    # Other actions
    "delegatebw": SystemActionGroup.OTHER_ACTION,
    "buyrambytes": SystemActionGroup.OTHER_ACTION,
    "undelegatebw": SystemActionGroup.OTHER_ACTION,
    "rentcpu": SystemActionGroup.OTHER_ACTION,
    "voteproducer": SystemActionGroup.OTHER_ACTION,
    "buyram": SystemActionGroup.OTHER_ACTION,
    "open": SystemActionGroup.OTHER_ACTION,
}

#: Contracts whose actions follow the standard token interface; the paper
#: includes token contracts in the "known" set because the interface is
#: standardised even though the contracts are user-deployed.
TOKEN_INTERFACE_ACTIONS = ("transfer", "issue", "create", "open", "close", "retire")

#: Category labels used by Figure 3a.
CATEGORY_EXCHANGE = "Exchange"
CATEGORY_BETTING = "Betting"
CATEGORY_GAMES = "Games"
CATEGORY_PORNOGRAPHY = "Pornography"
CATEGORY_TOKENS = "Tokens"
CATEGORY_OTHERS = "Others"

#: Well-known application accounts and their category (the paper labels the
#: top-100 contracts by hand; this is the equivalent label table).
APPLICATION_CATEGORIES: Dict[str, str] = {
    "eosio.token": CATEGORY_TOKENS,
    "eidosonecoin": CATEGORY_TOKENS,
    "pornhashbaby": CATEGORY_PORNOGRAPHY,
    "betdicetasks": CATEGORY_BETTING,
    "betdicegroup": CATEGORY_BETTING,
    "betdicebacca": CATEGORY_BETTING,
    "betdicesicbo": CATEGORY_BETTING,
    "betdiceadmin": CATEGORY_BETTING,
    "bluebetproxy": CATEGORY_BETTING,
    "bluebettexas": CATEGORY_BETTING,
    "bluebetjacks": CATEGORY_BETTING,
    "bluebetbcrat": CATEGORY_BETTING,
    "bluebet2user": CATEGORY_BETTING,
    "whaleextrust": CATEGORY_EXCHANGE,
    "eossanguoone": CATEGORY_GAMES,
    "mykeypostman": CATEGORY_OTHERS,
    "mykeylogica1": CATEGORY_OTHERS,
    "lynxtoken123": CATEGORY_TOKENS,
}


def classify_system_action(action_name: str, contract: str) -> SystemActionGroup:
    """Figure 1 group for an action, given the contract that defines it.

    Actions on system contracts (and ``transfer``/``open`` on token-interface
    contracts) map to their known group; everything else is user-defined and
    lands in the "Others" row.
    """
    if contract.startswith("eosio"):
        return SYSTEM_ACTION_GROUPS.get(action_name, SystemActionGroup.OTHER_ACTION)
    if action_name in ("transfer", "open") and action_name in TOKEN_INTERFACE_ACTIONS:
        return SYSTEM_ACTION_GROUPS.get(action_name, SystemActionGroup.USER_DEFINED)
    return SystemActionGroup.USER_DEFINED


class EosAction(NamedTuple):
    """One action within an EOS transaction (a tuple: one is built per row)."""

    contract: str
    name: str
    actor: str
    receiver: str
    data: Mapping[str, Any] = EMPTY_MAPPING


def make_transfer(
    token_contract: str,
    sender: str,
    receiver: str,
    amount: float,
    symbol: str,
    memo: str = "",
) -> EosAction:
    """Build a standard token-interface ``transfer`` action.

    The action is delivered to the token contract (its ``receiver`` scope);
    the recipient of the funds travels in the action data, mirroring how EOS
    notifies contracts and how the paper attributes "received transactions"
    to ``eosio.token`` in Figure 4.
    """
    return EosAction(
        token_contract,
        "transfer",
        sender,
        token_contract,
        {"from": sender, "to": receiver, "quantity": amount, "symbol": symbol, "memo": memo},
    )
