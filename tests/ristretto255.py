"""ristretto255 in pure Python, written from RFC 9496 section 4 alone.

A reference for the ``prod`` backend that shares no code with
libsodium: field arithmetic mod 2^255 - 19 on Python ints, the
decoding (4.3.1) and encoding (4.3.2) of an element, the
extended-Edwards addition of RFC 8032, double-and-add scalar
multiplication, and the one-way map of the element derivation (4.3.4).
A point is the tuple (X, Y, Z, T) of extended coordinates; elements are
compared through their encodings.  It is slow (a few ms per scalar
multiplication) and not constant time, which a test oracle need not be.
"""

import hashlib

P = 2**255 - 19
# The order of the prime-order group ristretto255 represents.
ORDER = 2**252 + 27742317777372353535851937790883648493

# The constants of RFC 9496 section 4.1.  SQRT_AD_MINUS_ONE is the odd
# one of the two square roots of a*d - 1; the even one makes the
# element derivation disagree with the RFC.
D = 37095705934669439343138083508754565189542113879843219016388785533085940283555
SQRT_M1 = 19681161376707505956807079304988542015446066515923890162744021073123829784752
SQRT_AD_MINUS_ONE = 25063068953384623474111414158702152701244531502492656460079210482610430750235
INVSQRT_A_MINUS_D = 54469307008909316920995813868745141605393597292927456921205312896311721017578
ONE_MINUS_D_SQ = 1159843021668779879193775521855586647937357759715417654439879720876111806838
D_MINUS_ONE_SQ = 40440834346308536858101042469323190826248399146238708352240133220865137265952

IDENTITY = (0, 1, 1, 0)


def is_negative(x: int) -> bool:
    """RFC 9496 section 4.2: x is negative iff its reduced value is odd."""
    return x % P % 2 == 1


def ct_abs(x: int) -> int:
    return -x % P if is_negative(x) else x % P


def sqrt_ratio_m1(u: int, v: int) -> tuple[bool, int]:
    """(was_square, r): r = sqrt(u/v) if u/v is square, else
    sqrt(SQRT_M1 * u/v); r is non-negative (section 4.2)."""
    r = u * v**3 * pow(u * v**7, (P - 5) // 8, P) % P
    check = v * r * r % P
    correct_sign = check == u % P
    flipped_sign = check == -u % P
    flipped_sign_i = check == -u * SQRT_M1 % P
    if flipped_sign or flipped_sign_i:
        r = r * SQRT_M1 % P
    return correct_sign or flipped_sign, ct_abs(r)


def decode(data: bytes):
    """The point the 32-byte encoding names, or None where section 4.3.1
    says decoding fails."""
    if len(data) != 32:
        return None
    s = int.from_bytes(data, "little")
    if s >= P or is_negative(s):
        return None
    ss = s * s % P
    u1 = (1 - ss) % P
    u2 = (1 + ss) % P
    u2_sqr = u2 * u2 % P
    v = (-(D * u1 * u1) - u2_sqr) % P
    was_square, invsqrt = sqrt_ratio_m1(1, v * u2_sqr % P)
    den_x = invsqrt * u2 % P
    den_y = invsqrt * den_x * v % P
    x = ct_abs(2 * s * den_x)
    y = u1 * den_y % P
    t = x * y % P
    if not was_square or is_negative(t) or y == 0:
        return None
    return (x, y, 1, t)


def encode(point) -> bytes:
    """Section 4.3.2: the canonical 32-byte encoding of a point."""
    x0, y0, z0, t0 = point
    u1 = (z0 + y0) * (z0 - y0) % P
    u2 = x0 * y0 % P
    _, invsqrt = sqrt_ratio_m1(1, u1 * u2 * u2 % P)
    den1 = invsqrt * u1 % P
    den2 = invsqrt * u2 % P
    z_inv = den1 * den2 * t0 % P
    if is_negative(t0 * z_inv):
        x, y = y0 * SQRT_M1 % P, x0 * SQRT_M1 % P
        den_inv = den1 * INVSQRT_A_MINUS_D % P
    else:
        x, y, den_inv = x0, y0, den2
    if is_negative(x * z_inv):
        y = -y % P
    return ct_abs(den_inv * (z0 - y)).to_bytes(32, "little")


def add(p1, p2):
    """Extended twisted-Edwards addition with a = -1 (RFC 8032 5.1.4)."""
    x1, y1, z1, t1 = p1
    x2, y2, z2, t2 = p2
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * D * t1 * t2 % P
    d = 2 * z1 * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def scalar_mult(point, k: int):
    """k * point by double-and-add over the bits of k, high bit first."""
    out = IDENTITY
    for bit in bin(k)[2:]:
        out = add(out, out)
        if bit == "1":
            out = add(out, point)
    return out


def _map(t: int):
    """The one-way map of section 4.3.4 from a field element to a point."""
    r = SQRT_M1 * t * t % P
    u = (r + 1) * ONE_MINUS_D_SQ % P
    v = (-1 - r * D) * (r + D) % P
    was_square, s = sqrt_ratio_m1(u, v)
    if not was_square:
        s = -ct_abs(s * t) % P
    c = -1 if was_square else r
    n = (c * (r - 1) * D_MINUS_ONE_SQ - v) % P
    w0 = 2 * s * v % P
    w1 = n * SQRT_AD_MINUS_ONE % P
    w2 = (1 - s * s) % P
    w3 = (1 + s * s) % P
    return (w0 * w3 % P, w2 * w1 % P, w1 * w3 % P, w0 * w2 % P)


def from_uniform_bytes(data: bytes):
    """Section 4.3.4: the point derived from 64 uniform bytes, each half
    read little-endian with its top bit cleared and reduced mod p."""
    halves = (int.from_bytes(data[i:i + 32], "little") % 2**255 % P
              for i in (0, 32))
    return add(*map(_map, halves))


def base_point():
    """The Ed25519 base point (RFC 8032 5.1): y = 4/5, x non-negative."""
    y = 4 * pow(5, P - 2, P) % P
    # x^2 = (y^2 - 1) / (d y^2 + 1)
    _, x = sqrt_ratio_m1((y * y - 1) % P, (D * y * y + 1) % P)
    return (x, y, 1, x * y % P)


def generator_h(derivation: bytes) -> bytes:
    """The encoding of the point derived from SHA-512 of ``derivation``."""
    return encode(from_uniform_bytes(hashlib.sha512(derivation).digest()))
