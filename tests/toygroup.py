"""The order-101 subgroup of Z_607^*, the tests' exhaustive group.

The library runs on one group, ristretto255 (``setup_group("prod")``).
This group implements the same ``GroupContext`` interface and is small
enough that a test can check every identity by exhaustive exponent-table
lookup.  An element is its residue mod 607 as 2 big-endian bytes.  With
p = 101 a link tag names its signer (DDH is trivial), so no anonymity
claim can be tested here, and a tampered value passes a check by chance
about 1 time in 101.
"""

from ringadapt.groups import GroupContext

TOY_MODULUS = 607
TOY_ORDER = 101
TOY_G = 7  # smallest residue of multiplicative order 101 mod 607
TOY_H = 8  # second smallest


def toy_element(residue: int) -> bytes:
    """The element for a residue mod 607: 2 big-endian bytes."""
    return residue.to_bytes(2, "big")


class ToyGroup(GroupContext):
    """Order-101 subgroup of Z_607^*."""

    order = TOY_ORDER
    scalar_size = 2
    element_size = 2
    generator_g = toy_element(TOY_G)
    generator_h = toy_element(TOY_H)
    identity = toy_element(1)

    def mul(self, a: bytes, b: bytes) -> bytes:
        return toy_element(int.from_bytes(a, "big")
                           * int.from_bytes(b, "big") % TOY_MODULUS)

    def exp(self, a: bytes, k: int) -> bytes:
        return toy_element(pow(int.from_bytes(a, "big"), k % TOY_ORDER,
                               TOY_MODULUS))

    def is_element(self, a: bytes) -> bool:
        return (
            isinstance(a, bytes) and len(a) == 2
            and 1 <= (residue := int.from_bytes(a, "big")) < TOY_MODULUS
            and pow(residue, TOY_ORDER, TOY_MODULUS) == 1
        )

    def elements(self) -> list[bytes]:
        """All 101 subgroup elements, for exhaustive checks."""
        return [toy_element(pow(TOY_G, k, TOY_MODULUS))
                for k in range(TOY_ORDER)]
