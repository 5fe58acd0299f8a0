"""The built-in digests are ``hashlib``'s, bit for bit.

:mod:`repro.common.digest` takes ``blake2b`` and ``sha256`` from CPython's
built-in hash modules so no ``repro`` process loads OpenSSL.  Every store
key chain, state-entry name and checkpoint key is one of these digests, so
a single differing bit would turn every cache written before into a miss.
"""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine import config_digest
from repro.collection.store import CHAIN_ROOT, chain_link
from repro.common import digest

from tests.support import run_child


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_builtin_digests_equal_hashlibs(data):
    assert (
        digest.blake2b(data, digest_size=8).hexdigest()
        == hashlib.blake2b(data, digest_size=8).hexdigest()
    )
    assert digest.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


#: ``chain_link`` and ``config_digest`` on fixed inputs, recorded while
#: both still called ``hashlib``: a moved digest renames every state entry.
#: A link reads the blob's 8-byte header alone.
CHAIN_LINK_PINS = [
    ((CHAIN_ROOT, b"RPV3\x00\x03\xde\xad\xbe\xef", 4096), "fb92716622c18b66"),
    (("0123456789abcdef", b'{"rows": []}', 12), "0d749393d90bbccb"),
]
CONFIG_DIGEST_PINS = [
    ({"b": 2, "a": 1}, "61c404d6ef8d8c24"),
    ([("EUR", 1.25), ("USD", 1.0)], "0d95e3f0f77e5bc6"),
    ({}, "4f53cda18c2baa0c"),
]


def test_chain_link_and_config_digest_are_pinned():
    assert [chain_link(*args) for args, _ in CHAIN_LINK_PINS] == [
        pin for _, pin in CHAIN_LINK_PINS
    ]
    assert [config_digest(items) for items, _ in CONFIG_DIGEST_PINS] == [
        pin for _, pin in CONFIG_DIGEST_PINS
    ]


_WITHOUT_BUILTINS = """
import hashlib, json, sys
sys.modules["_blake2"] = sys.modules["_sha256"] = sys.modules["_sha2"] = None
from repro.common import digest
from repro.analysis.engine import config_digest
from repro.collection.store import chain_link
print(json.dumps({{
    "hashlibs": [digest.blake2b is hashlib.blake2b, digest.sha256 is hashlib.sha256],
    "links": [chain_link(*args) for args in {links!r}],
    "configs": [config_digest(items) for items in {configs!r}],
}}))
"""


def test_a_build_without_the_builtin_modules_falls_back_to_hashlib():
    """``hashlib`` is imported first: its ``blake2b`` is ``_blake2``'s own,
    so only ``repro.common.digest`` sees the modules missing."""
    code = _WITHOUT_BUILTINS.format(
        links=[args for args, _ in CHAIN_LINK_PINS],
        configs=[items for items, _ in CONFIG_DIGEST_PINS],
    )
    done = run_child(["-c", code])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result == {
        "hashlibs": [True, True],
        "links": [pin for _, pin in CHAIN_LINK_PINS],
        "configs": [pin for _, pin in CONFIG_DIGEST_PINS],
    }
