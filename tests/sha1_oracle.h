// Byte-at-a-time SHA-1: one 64-byte block per call, an 80-word message
// schedule, and a round loop that branches on the round index, with the
// padding appended one byte at a time through update(). This is the
// implementation util::Sha1's straight-line multi-block kernel replaced; it
// is kept verbatim as the reference the differential test compares every
// digest against.
#ifndef KADSIM_TESTS_SHA1_ORACLE_H
#define KADSIM_TESTS_SHA1_ORACLE_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/sha1.h"

namespace kadsim::test_support {

class ReferenceSha1 {
public:
    ReferenceSha1() noexcept { reset(); }

    void reset() noexcept {
        h_ = {0x67452301U, 0xEFCDAB89U, 0x98BADCFEU, 0x10325476U, 0xC3D2E1F0U};
        buffered_ = 0;
        total_bytes_ = 0;
    }

    void update(std::span<const std::uint8_t> data) noexcept {
        total_bytes_ += data.size();
        std::size_t offset = 0;
        if (buffered_ > 0) {
            const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
            std::memcpy(buffer_.data() + buffered_, data.data(), take);
            buffered_ += take;
            offset = take;
            if (buffered_ == buffer_.size()) {
                process_block(buffer_.data());
                buffered_ = 0;
            }
        }
        while (offset + 64 <= data.size()) {
            process_block(data.data() + offset);
            offset += 64;
        }
        if (offset < data.size()) {
            std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
            buffered_ = data.size() - offset;
        }
    }

    [[nodiscard]] util::Sha1Digest finish() noexcept {
        const std::uint64_t bit_length = total_bytes_ * 8;
        // Append 0x80 then zero-pad to 56 mod 64, then the 64-bit big-endian length.
        const std::uint8_t one = 0x80;
        update(std::span<const std::uint8_t>(&one, 1));
        const std::uint8_t zero = 0x00;
        while (buffered_ != 56) {
            update(std::span<const std::uint8_t>(&zero, 1));
        }
        std::array<std::uint8_t, 8> len_bytes{};
        for (int i = 0; i < 8; ++i) {
            len_bytes[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
        }
        update(std::span<const std::uint8_t>(len_bytes.data(), len_bytes.size()));

        util::Sha1Digest digest{};
        for (std::size_t i = 0; i < 5; ++i) {
            digest[i * 4 + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
            digest[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
            digest[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
            digest[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
        }
        return digest;
    }

private:
    static constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
        return (x << k) | (x >> (32 - k));
    }

    void process_block(const std::uint8_t* block) noexcept {
        std::array<std::uint32_t, 80> w{};
        for (std::size_t t = 0; t < 16; ++t) {
            w[t] = (static_cast<std::uint32_t>(block[t * 4]) << 24) |
                   (static_cast<std::uint32_t>(block[t * 4 + 1]) << 16) |
                   (static_cast<std::uint32_t>(block[t * 4 + 2]) << 8) |
                   static_cast<std::uint32_t>(block[t * 4 + 3]);
        }
        for (std::size_t t = 16; t < 80; ++t) {
            w[t] = rotl32(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
        }

        std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
        for (std::size_t t = 0; t < 80; ++t) {
            std::uint32_t f = 0;
            std::uint32_t k = 0;
            if (t < 20) {
                f = (b & c) | (~b & d);
                k = 0x5A827999U;
            } else if (t < 40) {
                f = b ^ c ^ d;
                k = 0x6ED9EBA1U;
            } else if (t < 60) {
                f = (b & c) | (b & d) | (c & d);
                k = 0x8F1BBCDCU;
            } else {
                f = b ^ c ^ d;
                k = 0xCA62C1D6U;
            }
            const std::uint32_t temp = rotl32(a, 5) + f + e + k + w[t];
            e = d;
            d = c;
            c = rotl32(b, 30);
            b = a;
            a = temp;
        }
        h_[0] += a;
        h_[1] += b;
        h_[2] += c;
        h_[3] += d;
        h_[4] += e;
    }

    std::array<std::uint32_t, 5> h_{};
    std::array<std::uint8_t, 64> buffer_{};
    std::size_t buffered_ = 0;
    std::uint64_t total_bytes_ = 0;
};

}  // namespace kadsim::test_support

#endif  // KADSIM_TESTS_SHA1_ORACLE_H
