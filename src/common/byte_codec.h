/**
 * @file
 * The one little-endian byte codec behind every format that crosses a
 * process boundary: frame headers (net/frame.h), wire messages
 * (net/wire.h) and checkpoints (engine/checkpoint.h).
 *
 *   - Integers are written least significant byte first, at the width the
 *     field names; bools and enums travel as integers.
 *   - Doubles travel as their IEEE-754 bits (double_bits), so -0.0 and NaN
 *     payloads survive exactly.
 *   - Strings and lists carry a length prefix whose width is the format's
 *     own (@p Length): u32 in checkpoints, u64 on the wire.
 *
 * ByteWriter and ByteReader share their field methods, so a format lists
 * its fields ONCE, as a generic function over `auto& io`, and the same
 * list encodes (io = ByteWriter) and decodes (io = ByteReader): the
 * encoder and decoder cannot drift apart.
 *
 * ByteReader never reads past its buffer. An overrun, a list length larger
 * than the bytes left, or a trailing byte throws the caller's typed error
 * (@p Error: net::NetError or engine::CheckpointError), never UB and never
 * std::bad_alloc: count() checks each length against the bytes left
 * before anything is sized by it.
 */
#ifndef FQ_COMMON_BYTE_CODEC_H
#define FQ_COMMON_BYTE_CODEC_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitops.h"

namespace fq::common {

namespace detail {

/** An integer field's value at its wire width; bools and enums convert,
 *  floating point never does silently (f64 carries doubles). */
template <class Wire, class T>
Wire
as_wire(T v)
{
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "integer fields take integers, bools or enums");
    return static_cast<Wire>(v);
}

} // namespace detail

/** Appends fields to a byte vector; @p Length is the prefix width. */
template <class Length>
class ByteWriter
{
  public:
    explicit ByteWriter(std::size_t reserve = 0) { bytes_.reserve(reserve); }

    template <class T> void u8(T v) { put(detail::as_wire<std::uint8_t>(v)); }
    template <class T> void u32(T v) { put(detail::as_wire<std::uint32_t>(v)); }
    template <class T> void u64(T v) { put(detail::as_wire<std::uint64_t>(v)); }
    template <class T> void i32(T v) { u32(detail::as_wire<std::int32_t>(v)); }
    template <class T> void i64(T v) { u64(detail::as_wire<std::int64_t>(v)); }
    void f64(double v) { put(double_bits(v)); }

    void
    str(const std::string& s)
    {
        length(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    /** Length-prefixed list; @p each(io, item) writes one item.
     *  @p min_size is the reader's bound (see ByteReader::list). */
    template <class T, class Each>
    void
    list(const std::vector<T>& items, std::size_t /*min_size*/, Each each)
    {
        length(items.size());
        for (const T& item : items)
            each(*this, item);
    }

    /** Raw bytes, no prefix. */
    void
    raw(const std::vector<std::uint8_t>& bytes)
    {
        bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
    }

    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    void length(std::size_t n) { put(static_cast<Length>(n)); }

    template <class T>
    void
    put(T v)
    {
        for (std::size_t k = 0; k < sizeof(T); ++k)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
    }

    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked reader over a borrowed buffer (which must outlive it);
 *  every defect throws @p Error, whose message starts with @p what. */
template <class Length, class Error>
class ByteReader
{
  public:
    ByteReader(const std::uint8_t* data, std::size_t size, const char* what)
        : data_(data), size_(size), what_(what)
    {
    }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() { return bits_double(u64()); }

    // The writer's field methods, reading into the field.
    template <class T> void u8(T& v) { v = static_cast<T>(u8()); }
    template <class T> void u32(T& v) { v = static_cast<T>(u32()); }
    template <class T> void u64(T& v) { v = static_cast<T>(u64()); }
    template <class T> void i32(T& v) { v = static_cast<T>(i32()); }
    template <class T> void i64(T& v) { v = static_cast<T>(i64()); }
    void f64(double& v) { v = f64(); }

    void
    str(std::string& s)
    {
        const std::size_t n = count(1);
        s.assign(reinterpret_cast<const char*>(data_ + pos_), n);
        pos_ += n;
    }

    /** A list length prefix, for items of at least @p min_size (>= 1)
     *  bytes each, checked against the bytes left. */
    std::size_t
    count(std::size_t min_size)
    {
        const std::uint64_t n = get<Length>();
        if (n > remaining() / min_size)
            throw Error(std::string(what_) + " list length " +
                        std::to_string(n) + " exceeds the " +
                        std::to_string(remaining()) + " bytes left");
        return static_cast<std::size_t>(n);
    }

    /** Length-prefixed list; @p each(io, item) reads one item. */
    template <class T, class Each>
    void
    list(std::vector<T>& items, std::size_t min_size, Each each)
    {
        items.resize(count(min_size));
        for (T& item : items)
            each(*this, item);
    }

    std::size_t remaining() const { return size_ - pos_; }

    /** The whole buffer must have been consumed. */
    void
    finish() const
    {
        if (remaining() != 0)
            throw Error(std::string(what_) + " has " +
                        std::to_string(remaining()) +
                        " trailing bytes (corrupt or mis-framed)");
    }

  private:
    template <class T>
    T
    get()
    {
        if (sizeof(T) > remaining())
            throw Error(std::string(what_) + " truncated: need " +
                        std::to_string(sizeof(T)) + " more bytes at offset " +
                        std::to_string(pos_) + " of " +
                        std::to_string(size_));
        T v = 0;
        for (std::size_t k = 0; k < sizeof(T); ++k)
            v |= static_cast<T>(static_cast<T>(data_[pos_++]) << (8 * k));
        return v;
    }

    const std::uint8_t* data_;
    std::size_t size_;
    const char* what_;
    std::size_t pos_ = 0;
};

// List items for ByteWriter::list / ByteReader::list.
inline constexpr auto u8_item = [](auto& io, auto& v) { io.u8(v); };
inline constexpr auto i32_item = [](auto& io, auto& v) { io.i32(v); };
/** A (u64, u64) pair, such as a histogram's (state, count). */
inline constexpr auto u64_pair = [](auto& io, auto& pair) {
    io.u64(pair.first);
    io.u64(pair.second);
};

} // namespace fq::common

#endif // FQ_COMMON_BYTE_CODEC_H
