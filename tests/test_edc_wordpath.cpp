// Property tests pinning the word-level EDC fast path (encode_word /
// decode_word) bit-for-bit to the BitVec reference path, for every code
// configuration the paper uses, across random data words and all 0/1/2-bit
// error patterns (plus random 3-bit patterns for DECTED detection). Each
// configuration is checked twice: as a private make_codec instance and as
// the process-wide shared_codec instance the cache and energy model use.
#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "hvc/common/bitvec.hpp"
#include "hvc/common/error.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/edc/bch.hpp"
#include "hvc/edc/code.hpp"
#include "hvc/edc/hsiao.hpp"

namespace hvc::edc {
namespace {

/// Every codec configuration the paper's cache instantiates, from
/// make_codec, followed by the shared instances of the four coded ones
/// (shared_codec has no instance for kNone).
[[nodiscard]] std::vector<const Codec*> paper_codecs() {
  static const std::vector<std::unique_ptr<Codec>> owned = [] {
    std::vector<std::unique_ptr<Codec>> codecs;
    codecs.push_back(make_codec(Protection::kNone, 32));
    codecs.push_back(make_codec(Protection::kSecded, 32));  // (39,32)
    codecs.push_back(make_codec(Protection::kSecded, 26));  // (33,26)
    codecs.push_back(make_codec(Protection::kDected, 32));  // (45,32)
    codecs.push_back(make_codec(Protection::kDected, 26));  // (39,26)
    return codecs;
  }();
  std::vector<const Codec*> codecs;
  for (const auto& codec : owned) {
    codecs.push_back(codec.get());
  }
  for (const Protection protection :
       {Protection::kSecded, Protection::kDected}) {
    for (const std::size_t bits : {32u, 26u}) {
      codecs.push_back(shared_codec(protection, bits));
    }
  }
  return codecs;
}

void expect_decodes_agree(const Codec& codec, std::uint64_t corrupted) {
  const DecodeResult ref =
      codec.decode(BitVec::from_word(corrupted, codec.codeword_bits()));
  const WordDecodeResult fast = codec.decode_word(corrupted);
  ASSERT_EQ(fast.status, ref.status) << codec.name();
  ASSERT_EQ(fast.corrected_bits, ref.corrected_bits) << codec.name();
  if (ref.status != DecodeStatus::kDetected) {
    ASSERT_EQ(fast.data, ref.data.to_word()) << codec.name();
  }
}

TEST(EdcWordPath, PaperCodecsHaveWordPath) {
  for (const Codec* codec : paper_codecs()) {
    EXPECT_TRUE(codec->has_word_path()) << codec->name();
    EXPECT_LE(codec->codeword_bits(), 64u) << codec->name();
  }
}

TEST(EdcWordPath, EncodeMatchesReference) {
  Rng rng(101);
  for (const Codec* codec : paper_codecs()) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      const BitVec ref = codec->encode(BitVec::from_word(data,
                                                         codec->data_bits()));
      ASSERT_EQ(codec->encode_word(data), ref.to_word()) << codec->name();
      // Stray bits above data_bits() must be ignored, not folded in.
      ASSERT_EQ(codec->encode_word(data | (rng.next()
                                           << codec->data_bits())),
                ref.to_word())
          << codec->name();
    }
  }
}

TEST(EdcWordPath, CleanDecodeMatchesReference) {
  Rng rng(102);
  for (const Codec* codec : paper_codecs()) {
    for (int trial = 0; trial < 100; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      const std::uint64_t codeword = codec->encode_word(data);
      expect_decodes_agree(*codec, codeword);
      const WordDecodeResult decoded = codec->decode_word(codeword);
      ASSERT_EQ(decoded.status, DecodeStatus::kClean);
      ASSERT_EQ(decoded.data, data);
    }
  }
}

TEST(EdcWordPath, AllSingleErrorsMatchReference) {
  Rng rng(103);
  for (const Codec* codec : paper_codecs()) {
    const std::size_t n = codec->codeword_bits();
    for (int trial = 0; trial < 16; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      const std::uint64_t codeword = codec->encode_word(data);
      for (std::size_t bit = 0; bit < n; ++bit) {
        expect_decodes_agree(*codec, codeword ^ (1ULL << bit));
      }
    }
  }
}

TEST(EdcWordPath, AllDoubleErrorsMatchReference) {
  Rng rng(104);
  for (const Codec* codec : paper_codecs()) {
    const std::size_t n = codec->codeword_bits();
    for (int trial = 0; trial < 4; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      const std::uint64_t codeword = codec->encode_word(data);
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
          expect_decodes_agree(*codec,
                               codeword ^ (1ULL << a) ^ (1ULL << b));
        }
      }
    }
  }
}

TEST(EdcWordPath, RandomTripleErrorsMatchReference) {
  Rng rng(105);
  for (const Codec* codec : paper_codecs()) {
    const std::size_t n = codec->codeword_bits();
    for (int trial = 0; trial < 300; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      std::uint64_t corrupted = codec->encode_word(data);
      for (int e = 0; e < 3; ++e) {
        corrupted ^= 1ULL << rng.below(n);
      }
      expect_decodes_agree(*codec, corrupted);
    }
  }
}

TEST(EdcWordPath, CorrectionRecoversData) {
  // Beyond agreeing with the reference, the fast path must actually repair:
  // any pattern within the correction radius returns the original data.
  Rng rng(106);
  for (const Codec* codec : paper_codecs()) {
    const std::size_t t = codec->correctable();
    const std::size_t n = codec->codeword_bits();
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      std::uint64_t corrupted = codec->encode_word(data);
      std::size_t flips = 0;
      while (flips < t) {
        const std::uint64_t mask = 1ULL << rng.below(n);
        if ((corrupted ^ codec->encode_word(data)) & mask) {
          continue;  // already flipped this bit
        }
        corrupted ^= mask;
        ++flips;
      }
      const WordDecodeResult decoded = codec->decode_word(corrupted);
      ASSERT_NE(decoded.status, DecodeStatus::kDetected) << codec->name();
      ASSERT_EQ(decoded.data, data) << codec->name();
      ASSERT_EQ(decoded.corrected_bits, flips) << codec->name();
    }
  }
}

TEST(SharedCodec, OneInstancePerKey) {
  EXPECT_EQ(shared_codec(Protection::kNone, 32), nullptr);
  for (const Protection protection :
       {Protection::kSecded, Protection::kDected}) {
    for (const std::size_t bits : {32u, 26u}) {
      const Codec* shared = shared_codec(protection, bits);
      ASSERT_NE(shared, nullptr);
      EXPECT_EQ(shared_codec(protection, bits), shared);
      const auto fresh = make_codec(protection, bits);
      EXPECT_EQ(shared->name(), fresh->name());
      EXPECT_EQ(shared->codeword_bits(), fresh->codeword_bits());
    }
  }
  EXPECT_NE(shared_codec(Protection::kSecded, 32),
            shared_codec(Protection::kSecded, 26));
  EXPECT_NE(shared_codec(Protection::kSecded, 32),
            shared_codec(Protection::kDected, 32));
}

TEST(SharedCodec, RacingFirstLookupsBuildOneInstance) {
  // (SECDED, 16) is looked up nowhere else in this binary, so the eight
  // threads race its first lookup; all must get the one instance.
  constexpr std::size_t kThreads = 8;
  std::vector<const Codec*> seen(kThreads, nullptr);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      seen[i] = shared_codec(Protection::kSecded, 16);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ASSERT_NE(seen.front(), nullptr);
  for (const Codec* codec : seen) {
    EXPECT_EQ(codec, seen.front());
  }
  EXPECT_EQ(shared_codec(Protection::kSecded, 16), seen.front());
  EXPECT_EQ(seen.front()->data_bits(), 16u);
}

TEST(EdcWordPath, WideCodeFallsBackToReferenceBridge) {
  // A whole-line BCH code (m=9, 256-bit words) has no 64-bit word path;
  // the word-level entry points must reject it rather than truncate.
  const BchDected wide(256);
  EXPECT_FALSE(wide.has_word_path());
  EXPECT_THROW((void)wide.encode_word(1), PreconditionError);
  EXPECT_THROW((void)wide.decode_word(1), PreconditionError);
}

}  // namespace
}  // namespace hvc::edc
