"""Linkable threshold ring adaptor signatures over a prime-order group.

Public surface:

* :mod:`ringadapt.groups`  -- group backends ("prod" ristretto255, "toy"
  order-101) behind one context interface;
* :mod:`ringadapt.scheme`  -- the nine-algorithm threshold ring adaptor
  scheme (keygen, gen_r, presign, preverify, adapt, verify, ext, link);
* :mod:`ringadapt.schnorr` -- the single-key adaptor counterpart;
* :mod:`ringadapt.wire`    -- canonical byte formats;
* :mod:`ringadapt.swap`    -- mock ledgers and the atomic-swap state
  machine;
* :mod:`ringadapt.bench`   -- the runtime/size sweep.
"""

import importlib

from . import groups, schnorr, wire
from .groups import GroupContext, UnknownBackendError, setup_group
from .scheme import (KeyMismatchError, KeyPair, PreSignature, Ring, Signature,
                     SignerWindow, StatementPair, adapt, ext, gen_r, keygen,
                     link, presign, preverify, verify, verify_relation)

__all__ = [
    "GroupContext", "KeyMismatchError", "KeyPair", "PreSignature", "Ring",
    "Signature", "SignerWindow", "StatementPair", "UnknownBackendError",
    "adapt", "bench", "ext", "gen_r", "groups", "keygen", "link", "presign",
    "preverify", "schnorr", "setup_group", "swap", "verify",
    "verify_relation", "wire",
]

__version__ = "0.1.0"


def __getattr__(name):
    # bench and swap load on first use: the CLI's verifier needs neither.
    if name in ("bench", "swap"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
