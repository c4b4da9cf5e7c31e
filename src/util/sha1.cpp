#include "util/sha1.h"

#include <algorithm>
#include <cstring>

namespace kadsim::util {

namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
    return (x << k) | (x >> (32 - k));
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
    return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

}  // namespace

void Sha1::reset() noexcept {
    h_ = {0x67452301U, 0xEFCDAB89U, 0x98BADCFEU, 0x10325476U, 0xC3D2E1F0U};
    buffered_ = 0;
    total_bytes_ = 0;
}

void Sha1::update(std::string_view text) noexcept {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
    if (data.empty()) return;
    total_bytes_ += data.size();
    const std::uint8_t* p = data.data();
    std::size_t left = data.size();
    if (buffered_ > 0) {
        const std::size_t take = std::min(left, buffer_.size() - buffered_);
        std::memcpy(buffer_.data() + buffered_, p, take);
        buffered_ += take;
        p += take;
        left -= take;
        if (buffered_ < buffer_.size()) return;
        compress(buffer_.data(), 1);
        buffered_ = 0;
    }
    const std::size_t blocks = left / 64;
    compress(p, blocks);
    p += blocks * 64;
    left -= blocks * 64;
    if (left > 0) {
        std::memcpy(buffer_.data(), p, left);
        buffered_ = left;
    }
}

Sha1Digest Sha1::finish() noexcept {
    const std::uint64_t bit_length = total_bytes_ * 8;
    // Append 0x80 then zero-pad to 56 mod 64 (spilling into a second block
    // when fewer than 9 bytes are free), then the 64-bit big-endian length.
    buffer_[buffered_++] = 0x80;
    if (buffered_ > 56) {
        std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
        compress(buffer_.data(), 1);
        buffered_ = 0;
    }
    std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
    for (std::size_t i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
    }
    compress(buffer_.data(), 1);

    Sha1Digest digest{};
    for (std::size_t i = 0; i < 5; ++i) {
        digest[i * 4 + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
        digest[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
        digest[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
        digest[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
    }
    return digest;
}

// The 80 rounds are written out, 20 per round function, so no round
// branches on its index. Rather than shifting the five working variables
// after each round, every round names them one position further rotated:
// round t passes (a, b, c, d, e), round t + 1 passes (e, a, b, c, d), and
// after five rounds the names line up again. Schedule word t comes from the
// block for t < 16; after that the 16-word window w is extended in place,
// W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]), with W[t-16] in the
// slot W[t] overwrites.
#define LOAD(t) (w[t] = load_be32(data + 4 * (t)))
#define MIX(t)                                                                            \
    (w[(t) & 15] =                                                                        \
         rotl32(w[((t) + 13) & 15] ^ w[((t) + 8) & 15] ^ w[((t) + 2) & 15] ^ w[(t) & 15], \
                1))
#define ROUND(a, b, c, d, e, f, k, wt) (e += rotl32(a, 5) + (f) + (k) + (wt), b = rotl32(b, 30))
#define R0(a, b, c, d, e, t) ROUND(a, b, c, d, e, d ^ (b & (c ^ d)), 0x5A827999U, LOAD(t))
#define R1(a, b, c, d, e, t) ROUND(a, b, c, d, e, d ^ (b & (c ^ d)), 0x5A827999U, MIX(t))
#define R2(a, b, c, d, e, t) ROUND(a, b, c, d, e, b ^ c ^ d, 0x6ED9EBA1U, MIX(t))
#define R3(a, b, c, d, e, t) ROUND(a, b, c, d, e, (b & c) | (d & (b | c)), 0x8F1BBCDCU, MIX(t))
#define R4(a, b, c, d, e, t) ROUND(a, b, c, d, e, b ^ c ^ d, 0xCA62C1D6U, MIX(t))

void Sha1::compress(const std::uint8_t* data, std::size_t nblocks) noexcept {
    std::uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];
    std::array<std::uint32_t, 16> w{};
    for (; nblocks > 0; --nblocks, data += 64) {
        std::uint32_t a = h0, b = h1, c = h2, d = h3, e = h4;
        // clang-format off
        R0(a,b,c,d,e, 0); R0(e,a,b,c,d, 1); R0(d,e,a,b,c, 2); R0(c,d,e,a,b, 3); R0(b,c,d,e,a, 4);
        R0(a,b,c,d,e, 5); R0(e,a,b,c,d, 6); R0(d,e,a,b,c, 7); R0(c,d,e,a,b, 8); R0(b,c,d,e,a, 9);
        R0(a,b,c,d,e,10); R0(e,a,b,c,d,11); R0(d,e,a,b,c,12); R0(c,d,e,a,b,13); R0(b,c,d,e,a,14);
        R0(a,b,c,d,e,15); R1(e,a,b,c,d,16); R1(d,e,a,b,c,17); R1(c,d,e,a,b,18); R1(b,c,d,e,a,19);

        R2(a,b,c,d,e,20); R2(e,a,b,c,d,21); R2(d,e,a,b,c,22); R2(c,d,e,a,b,23); R2(b,c,d,e,a,24);
        R2(a,b,c,d,e,25); R2(e,a,b,c,d,26); R2(d,e,a,b,c,27); R2(c,d,e,a,b,28); R2(b,c,d,e,a,29);
        R2(a,b,c,d,e,30); R2(e,a,b,c,d,31); R2(d,e,a,b,c,32); R2(c,d,e,a,b,33); R2(b,c,d,e,a,34);
        R2(a,b,c,d,e,35); R2(e,a,b,c,d,36); R2(d,e,a,b,c,37); R2(c,d,e,a,b,38); R2(b,c,d,e,a,39);

        R3(a,b,c,d,e,40); R3(e,a,b,c,d,41); R3(d,e,a,b,c,42); R3(c,d,e,a,b,43); R3(b,c,d,e,a,44);
        R3(a,b,c,d,e,45); R3(e,a,b,c,d,46); R3(d,e,a,b,c,47); R3(c,d,e,a,b,48); R3(b,c,d,e,a,49);
        R3(a,b,c,d,e,50); R3(e,a,b,c,d,51); R3(d,e,a,b,c,52); R3(c,d,e,a,b,53); R3(b,c,d,e,a,54);
        R3(a,b,c,d,e,55); R3(e,a,b,c,d,56); R3(d,e,a,b,c,57); R3(c,d,e,a,b,58); R3(b,c,d,e,a,59);

        R4(a,b,c,d,e,60); R4(e,a,b,c,d,61); R4(d,e,a,b,c,62); R4(c,d,e,a,b,63); R4(b,c,d,e,a,64);
        R4(a,b,c,d,e,65); R4(e,a,b,c,d,66); R4(d,e,a,b,c,67); R4(c,d,e,a,b,68); R4(b,c,d,e,a,69);
        R4(a,b,c,d,e,70); R4(e,a,b,c,d,71); R4(d,e,a,b,c,72); R4(c,d,e,a,b,73); R4(b,c,d,e,a,74);
        R4(a,b,c,d,e,75); R4(e,a,b,c,d,76); R4(d,e,a,b,c,77); R4(c,d,e,a,b,78); R4(b,c,d,e,a,79);
        // clang-format on
        h0 += a;
        h1 += b;
        h2 += c;
        h3 += d;
        h4 += e;
    }
    h_ = {h0, h1, h2, h3, h4};
}

#undef R4
#undef R3
#undef R2
#undef R1
#undef R0
#undef ROUND
#undef MIX
#undef LOAD

Sha1Digest sha1(std::string_view text) noexcept {
    Sha1 h;
    h.update(text);
    return h.finish();
}

Sha1Digest sha1(std::span<const std::uint8_t> data) noexcept {
    Sha1 h;
    h.update(data);
    return h.finish();
}

std::string to_hex(const Sha1Digest& digest) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(digest.size() * 2);
    for (const std::uint8_t byte : digest) {
        out.push_back(kDigits[byte >> 4]);
        out.push_back(kDigits[byte & 0x0F]);
    }
    return out;
}

}  // namespace kadsim::util
