/**
 * @file
 * Bit-level helpers used by the exact Ising enumerator, the statevector
 * simulator, and sub-space decoding. Basis states are encoded little-endian:
 * bit i of a state index holds spin/qubit i, with bit value 0 <-> spin +1
 * and bit value 1 <-> spin -1 (matching the |0> -> +1 z-basis eigenvalue
 * convention in the paper's Section 2.1).
 */
#ifndef FQ_COMMON_BITOPS_H
#define FQ_COMMON_BITOPS_H

#include <cstdint>
#include <cstring>

namespace fq {

/** Bit-exact 64-bit view of a double (-0.0 and NaN payloads included). */
inline std::uint64_t
double_bits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Inverse of double_bits. */
inline double
bits_double(std::uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** Spin value {-1,+1} of bit @p i inside basis-state index @p state. */
inline int
spin_of_bit(std::uint64_t state, int i)
{
    return (state >> i) & 1ull ? -1 : +1;
}

/** Basis-state bit for a spin value: +1 -> 0, -1 -> 1. */
inline std::uint64_t
bit_of_spin(int spin)
{
    return spin < 0 ? 1ull : 0ull;
}

/** Set bit @p i of @p state to encode @p spin. */
inline std::uint64_t
with_spin(std::uint64_t state, int i, int spin)
{
    const std::uint64_t mask = 1ull << i;
    return spin < 0 ? (state | mask) : (state & ~mask);
}

/**
 * Mask of the low @p n bits, for n in [0, 64]. The naive
 * `(1 << n) - 1` idiom is undefined at n == 64 (the register-width
 * boundary every 64-spin mirror flip hits); this helper is the one
 * definition all width-mask sites share.
 */
inline std::uint64_t
low_bits_mask(int n)
{
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/** Gray-code of n: consecutive n differ in exactly one bit of the result. */
inline std::uint64_t
gray_code(std::uint64_t n)
{
    return n ^ (n >> 1);
}

/** Index of the bit that changes between gray_code(n-1) and gray_code(n). */
inline int
gray_flip_bit(std::uint64_t n)
{
#if defined(__GNUC__) || defined(__clang__)
    return n == 0 ? 64 : __builtin_ctzll(n);
#else
    if (n == 0)
        return 64;
    int c = 0;
    while (!(n & 1ull)) {
        n >>= 1;
        ++c;
    }
    return c;
#endif
}

/** Population count. */
inline int
popcount64(std::uint64_t x)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(x);
#else
    int c = 0;
    for (; x; x &= x - 1)
        ++c;
    return c;
#endif
}

} // namespace fq

#endif // FQ_COMMON_BITOPS_H
