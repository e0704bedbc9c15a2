"""The prime-order group: ristretto255 through libsodium.

Every scheme in this package runs over a cyclic group of prime order p with
two independent generators g and h and a hash function into Z_p (libsodium's
SHA-512).  ``setup_group("prod")`` gives ristretto255 through one ctypes
wrapper of the system libsodium: prime order ~2^252, 32-byte canonical
element encodings (checked here too, whatever the libsodium version: an
encoding with bit 255 set is refused), 32-byte scalars.  The tests run the
same code on an order-101 group of their own (``tests/toygroup.py``)
through the ``GroupContext`` interface.

A group element is its canonical encoding, a ``bytes`` string of
``element_size``, so it is hashed and written as it is; scalars are plain
ints in [0, p).  All arithmetic goes through the context object.  Contexts
are immutable and safe to share across threads.

An element is validated where it enters the program (``decode_element``,
``Ring``, the verifiers, the ledger); a value the program computed is
never re-checked.  A ring key, link tag, statement or payer key must not
be the identity either (``is_nonidentity``); a computed R or T may be.
Every group decodes by one rule, ``GroupContext.decode_element``.  In
these operations ``verify`` costs n+3 scalar multiplications and n+t
point adds (``exp``, ``mul``), and ``presign``/``preverify`` n+3 and
n+t+2.

Every function that draws randomness takes ``rng``, any ``random.Random``,
and draws through ``rng.randrange``: ``random.Random(seed)`` replays a run,
and the default ``random.SystemRandom()`` reads ``os.urandom``, as
``secrets`` does, without loading OpenSSL.
"""

from __future__ import annotations

import ctypes
import functools
import random
import struct
from operator import attrgetter
from typing import Iterable, Sequence

Element = bytes


def require_exact(what: str, values, types=(bytes,)) -> None:
    """Raise ValueError unless each value's type is exactly one of
    ``types``, by default an Element's.  A look-alike (True for 1, 5.0 for
    5, a memoryview for bytes) can equal a value yet fail its checks."""
    if not all(type(value) in types for value in values):
        raise ValueError(f"{what} must be exactly "
                         + " or ".join(kind.__name__ for kind in types))


# Nothing-up-my-sleeve seed for the second generator: h must not have a
# discrete log relative to g that anyone could know.
H_DERIVATION_STRING = b"LTRAS-generator-h-v1"


class Record:
    """Immutable value, the package's stand-in for a frozen dataclass.

    Fields are the class annotations, in order; a class attribute gives a
    default and ``__post_init__`` runs after construction.  Records with
    the same exact type and field values are equal and hash alike."""

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__qualname__}: too many arguments")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__qualname__}: bad argument {name!r}")
            values[name] = value
        for name in cls._fields:
            if name not in values and not hasattr(cls, name):
                raise TypeError(f"{cls.__qualname__}: missing {name!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    @classmethod
    def _computed(cls, *values):
        """A record built without ``__post_init__``, for a caller that
        must not pay for re-checking the values it passes."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values))
        return record

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash((type(self), self._values(self)))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    __delattr__ = __setattr__


_SYSTEM = random.SystemRandom()
SeededRandomness = random.Random   # imported by perfbench/workloads.py


def frame_parts(domain_tag: bytes, parts: Iterable[bytes]) -> bytes:
    """Unambiguous preimage: every piece is u64-length-prefixed.

    Length prefixes guarantee that distinct part lists can never produce
    the same byte stream, e.g. ("ab","c") vs ("a","bc").
    """
    out = [struct.pack(">Q", len(domain_tag)), domain_tag]
    for part in parts:
        out.append(struct.pack(">Q", len(part)))
        out.append(part)
    return b"".join(out)


class GroupContext:
    """Interface of a group: ristretto255 here, the test groups too.

    Attributes set by subclasses: ``order`` (the prime p),
    ``scalar_size``/``element_size`` (canonical encoding widths in bytes),
    ``generator_g``, ``generator_h`` and ``identity``.
    """

    order: int
    scalar_size: int
    element_size: int
    generator_g: Element
    generator_h: Element
    identity: Element

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def exp(self, a: Element, k: int) -> Element:
        raise NotImplementedError

    def is_element(self, a: Element) -> bool:
        raise NotImplementedError

    def is_nonidentity(self, a: Element) -> bool:
        """An element other than the identity, as a ring key, link tag or
        statement must be: the identity is g^0 and h^0, a known secret."""
        return self.is_element(a) and a != self.identity

    def is_scalar(self, k) -> bool:
        return type(k) is int and 0 <= k < self.order

    def decode_element(self, data: bytes) -> Element:
        """Validate an element from any bytes-like object."""
        data = memoryview(data).tobytes()  # not bytes(32), the identity
        if len(data) != self.element_size:
            raise ValueError("element encoding has wrong length")
        if not self.is_element(data):
            raise ValueError("element encoding not a group element")
        return data

    def encode_scalar(self, k: int) -> bytes:
        if not self.is_scalar(k):
            raise ValueError("scalar out of range")
        return k.to_bytes(self.scalar_size, "little")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_size:
            raise ValueError("scalar encoding has wrong length")
        k = int.from_bytes(data, "little")
        if k >= self.order:
            raise ValueError("scalar encoding not canonical")
        return k

    def hash_to_scalar(self, domain_tag: bytes, parts: Sequence[bytes]) -> int:
        digest = _sha512(frame_parts(domain_tag, parts))
        return int.from_bytes(digest, "big") % self.order

    def random_scalar_nonzero(self, rng) -> int:
        # Uniform over Z_p^*: resample on 0.
        while True:
            k = rng.randrange(self.order)
            if k != 0:
                return k


RISTRETTO_ORDER = 2**252 + 27742317777372353535851937790883648493


def _sodium_names():
    yield "libsodium.so.23"
    yield "libsodium.so"
    from ctypes.util import find_library  # imports subprocess; last resort
    yield find_library("sodium")


# Every libsodium function the prod backend calls; each returns an int status.
_SIGNATURES = {
    "sodium_init": (),
    "crypto_core_ristretto255_is_valid_point": (ctypes.c_char_p,),
    "crypto_core_ristretto255_add": (ctypes.c_char_p,) * 3,
    "crypto_scalarmult_ristretto255": (ctypes.c_char_p,) * 3,
    "crypto_scalarmult_ristretto255_base": (ctypes.c_char_p,) * 2,
    "crypto_core_ristretto255_from_hash": (ctypes.c_char_p,) * 2,
    "crypto_hash_sha512": (ctypes.c_char_p, ctypes.c_char_p,
                           ctypes.c_ulonglong),
}


@functools.lru_cache(maxsize=None)
def _sodium() -> ctypes.CDLL:
    """The libsodium handle, loaded and initialised once, with the
    signature of every function in ``_SIGNATURES`` declared."""
    for candidate in filter(None, _sodium_names()):
        try:
            lib = ctypes.CDLL(candidate)
            break
        except OSError:
            continue
    else:
        raise RuntimeError("libsodium shared library not found")
    if not hasattr(lib, "crypto_scalarmult_ristretto255"):
        raise RuntimeError("libsodium build lacks ristretto255 support")
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, ctypes.c_int
    if lib.sodium_init() < 0:
        raise RuntimeError("sodium_init failed")
    return lib


def _point(name: str, *args: bytes) -> bytes:
    """Call the libsodium function ``name``, which writes one 32-byte
    element; a nonzero status raises ValueError."""
    out = ctypes.create_string_buffer(32)
    if getattr(_sodium(), name)(out, *args) != 0:
        raise ValueError(f"{name} rejected its input")
    return out.raw


def _sha512(data: bytes) -> bytes:
    """SHA-512 from libsodium, the one hash of every group."""
    out = ctypes.create_string_buffer(64)
    _sodium().crypto_hash_sha512(out, data, len(data))
    return out.raw


def _require_points(*elements):
    """libsodium reads 32 bytes behind each element pointer it is given."""
    for a in elements:
        if not (isinstance(a, bytes) and len(a) == 32):
            raise ValueError("ristretto255 element must be 32 bytes")


class RistrettoGroup(GroupContext):
    """ristretto255: prime order, canonical 32-byte encodings."""

    order = RISTRETTO_ORDER
    scalar_size = 32
    element_size = 32
    identity = b"\x00" * 32

    def __init__(self):
        self.generator_g = _point("crypto_scalarmult_ristretto255_base",
                                  (1).to_bytes(32, "little"))
        self.generator_h = _point("crypto_core_ristretto255_from_hash",
                                  _sha512(H_DERIVATION_STRING))

    def mul(self, a: bytes, b: bytes) -> bytes:
        _require_points(a, b)
        return _point("crypto_core_ristretto255_add", a, b)

    def exp(self, a: bytes, k: int) -> bytes:
        _require_points(a)
        k %= RISTRETTO_ORDER
        # libsodium refuses to output the identity; in a prime-order group
        # only these two cases produce it.
        if k == 0 or a == self.identity:
            return self.identity
        kb = k.to_bytes(32, "little")
        if a == self.generator_g:
            return _point("crypto_scalarmult_ristretto255_base", kb)
        return _point("crypto_scalarmult_ristretto255", kb, a)

    def is_element(self, a: Element) -> bool:
        # RFC 9496 4.3.1 requires s < p, so bit 255 clear; libsodium 1.0.18
        # ignores that bit, and every element would have two encodings.
        return (isinstance(a, bytes) and len(a) == 32 and a[31] < 0x80
                and _sodium().crypto_core_ristretto255_is_valid_point(a) == 1)


@functools.lru_cache(maxsize=None)
def setup_group(backend_id: str) -> GroupContext:
    """Return the group context for ``"prod"``, ristretto255.

    Deterministic: both generators are fixed, h by the hash-to-group
    derivation string rather than by sampling.
    """
    if backend_id != "prod":
        raise ValueError(f"unknown group backend {backend_id!r}")
    return RistrettoGroup()
