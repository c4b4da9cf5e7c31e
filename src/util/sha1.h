// SHA-1 (FIPS 180-1), implemented from the specification.
//
// The paper derives node and data-object identifiers from "a cryptographically
// secure hash function with the goal of equal distribution of identifiers in
// the identifier space" (§4.1); Kademlia's original bit-length b = 160 is
// exactly the SHA-1 digest size. SHA-1 is cryptographically broken for
// collision resistance but remains the historically faithful choice here, and
// distributional uniformity (all we rely on) is unaffected.
#ifndef KADSIM_UTIL_SHA1_H
#define KADSIM_UTIL_SHA1_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace kadsim::util {

/// 20-byte SHA-1 digest, big-endian byte order as in FIPS 180-1.
using Sha1Digest = std::array<std::uint8_t, 20>;

/// Incremental SHA-1. Typical use: Sha1 h; h.update(...); auto d = h.finish();
class Sha1 {
public:
    Sha1() noexcept { reset(); }

    void reset() noexcept;
    void update(std::span<const std::uint8_t> data) noexcept;
    void update(std::string_view text) noexcept;

    /// Finalizes and returns the digest. The object must be reset() before
    /// further use.
    [[nodiscard]] Sha1Digest finish() noexcept;

private:
    /// Runs the compression function over `nblocks` consecutive 64-byte
    /// blocks starting at `data`.
    void compress(const std::uint8_t* data, std::size_t nblocks) noexcept;

    std::array<std::uint32_t, 5> h_{};
    std::array<std::uint8_t, 64> buffer_{};
    std::size_t buffered_ = 0;
    std::uint64_t total_bytes_ = 0;
};

/// One-shot convenience.
[[nodiscard]] Sha1Digest sha1(std::string_view text) noexcept;
[[nodiscard]] Sha1Digest sha1(std::span<const std::uint8_t> data) noexcept;

/// Lower-case hex rendering of a digest.
[[nodiscard]] std::string to_hex(const Sha1Digest& digest);

}  // namespace kadsim::util

#endif  // KADSIM_UTIL_SHA1_H
