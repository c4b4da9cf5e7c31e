// SHA-1 against the FIPS 180-1 reference vectors, plus incremental API,
// plus a differential test of the multi-block kernel against the
// byte-at-a-time reference in sha1_oracle.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sha1_oracle.h"
#include "util/rng.h"
#include "util/sha1.h"

namespace kadsim::util {
namespace {

/// Digest of `bytes` fed to a fresh `Hasher` in pieces: [0, cuts[0]),
/// [cuts[0], cuts[1]), ..., [cuts.back(), end). `cuts` must be sorted.
template <class Hasher>
Sha1Digest hash_in_pieces(std::span<const std::uint8_t> bytes,
                          const std::vector<std::size_t>& cuts) {
    Hasher h;
    std::size_t begin = 0;
    for (const std::size_t cut : cuts) {
        h.update(bytes.subspan(begin, cut - begin));
        begin = cut;
    }
    h.update(bytes.subspan(begin));
    return h.finish();
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t count) {
    std::vector<std::uint8_t> bytes(count);
    for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.next_u64());
    return bytes;
}

std::vector<std::size_t> random_cuts(Rng& rng, std::size_t count, std::size_t length) {
    std::vector<std::size_t> cuts(count);
    for (auto& cut : cuts) cut = static_cast<std::size_t>(rng.next_below(length + 1));
    std::sort(cuts.begin(), cuts.end());
    return cuts;
}

TEST(Sha1, EmptyString) {
    EXPECT_EQ(to_hex(sha1(std::string_view{})),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
    EXPECT_EQ(to_hex(sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
    EXPECT_EQ(to_hex(sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
    Sha1 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(to_hex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
    const std::string message =
        "The quick brown fox jumps over the lazy dog, repeatedly and with vigour.";
    for (std::size_t split = 0; split <= message.size(); split += 7) {
        Sha1 h;
        h.update(std::string_view(message).substr(0, split));
        h.update(std::string_view(message).substr(split));
        EXPECT_EQ(h.finish(), sha1(message)) << "split at " << split;
    }
}

TEST(Sha1, BoundaryLengths) {
    // 55/56/57/63/64/65 bytes hit the padding edge cases.
    const std::string base(70, 'x');
    for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
        const auto d1 = sha1(std::string_view(base).substr(0, len));
        Sha1 h;
        for (std::size_t i = 0; i < len; ++i) {
            h.update(std::string_view(base).substr(i, 1));
        }
        EXPECT_EQ(h.finish(), d1) << "length " << len;
    }
}

TEST(Sha1, ResetAllowsReuse) {
    Sha1 h;
    h.update("garbage");
    (void)h.finish();
    h.reset();
    h.update("abc");
    EXPECT_EQ(to_hex(h.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, MatchesReferenceOnEveryLengthAndSplit) {
    // Every length up to 17 blocks and a bit, hashed in one shot and split at
    // 1-3 random points, so each of update()'s buffered prefix, whole-block
    // run and tail, and both one- and two-block padding, meets every offset.
    Rng rng(20170327);
    const std::vector<std::uint8_t> bytes = random_bytes(rng, 1100);
    for (std::size_t length = 0; length <= bytes.size(); ++length) {
        const auto message = std::span<const std::uint8_t>(bytes).first(length);
        const Sha1Digest expected =
            hash_in_pieces<test_support::ReferenceSha1>(message, {});
        ASSERT_EQ(sha1(message), expected) << "length " << length;
        for (std::size_t splits = 1; splits <= 3; ++splits) {
            const auto cuts = random_cuts(rng, splits, length);
            ASSERT_EQ(hash_in_pieces<Sha1>(message, cuts), expected)
                << "length " << length << ", " << splits << " split(s), first at "
                << cuts.front();
        }
    }

    const std::vector<std::uint8_t> mebibyte = random_bytes(rng, std::size_t{1} << 20);
    const Sha1Digest expected = hash_in_pieces<test_support::ReferenceSha1>(mebibyte, {});
    EXPECT_EQ(sha1(mebibyte), expected);
    EXPECT_EQ(hash_in_pieces<Sha1>(mebibyte, random_cuts(rng, 3, mebibyte.size())),
              expected);
}

TEST(Sha1, DistinctInputsDistinctDigests) {
    EXPECT_NE(sha1("node-1"), sha1("node-2"));
    EXPECT_NE(sha1("a"), sha1("b"));
}

}  // namespace
}  // namespace kadsim::util
