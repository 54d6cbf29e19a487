#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/bits.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace specure::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowZeroIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // All four values should appear.
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ForkIndependent) {
  Rng parent(21);
  Rng child = parent.fork();
  // Child stream should not equal the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.next() == child.next());
  EXPECT_LT(same, 3);
}

TEST(Bits, Mask) {
  EXPECT_EQ(mask(0), 0u);
  EXPECT_EQ(mask(1), 1u);
  EXPECT_EQ(mask(12), 0xfffu);
  EXPECT_EQ(mask(64), ~0ULL);
}

TEST(Bits, Extract) {
  EXPECT_EQ(bits(0xdeadbeef, 0, 4), 0xfu);
  EXPECT_EQ(bits(0xdeadbeef, 28, 4), 0xdu);
  EXPECT_EQ(bit(0x8, 3), 1u);
  EXPECT_EQ(bit(0x8, 2), 0u);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sext(0xfff, 12), -1);
  EXPECT_EQ(sext(0x7ff, 12), 0x7ff);
  EXPECT_EQ(sext(0x800, 12), -2048);
  EXPECT_EQ(sext(0xffffffff, 32), -1);
  EXPECT_EQ(sext(5, 64), 5);
}

TEST(Bits, ToggledBits) {
  EXPECT_EQ(toggled_bits(0, 0), 0u);
  EXPECT_EQ(toggled_bits(0, 0xff), 8u);
  EXPECT_EQ(toggled_bits(0b1010, 0b0101), 4u);
}

TEST(Bits, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("top.df1.q", "top."));
  EXPECT_FALSE(starts_with("top", "top."));
  EXPECT_TRUE(ends_with("rob_unsafe", "unsafe"));
  EXPECT_FALSE(ends_with("q", "df1.q"));
}

TEST(Strings, Hex) {
  EXPECT_EQ(hex(0xdeadbeef), "deadbeef");
  EXPECT_EQ(hex(0, 4), "0000");
  EXPECT_EQ(hex0x(255), "0xff");
  EXPECT_EQ(hex(0x1, 8), "00000001");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"x"}, "."), "x");
}

// Parse `text` expecting a JsonError; returns its message.
std::string json_error(const std::string& text) {
  try {
    parse_json(text);
  } catch (const JsonError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no JsonError for: " << text.substr(0, 40);
  return "";
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(Json, ParsesObjectsArraysAndScalars) {
  const Json doc = parse_json(
      "{\"s\": \"a\\\"b\\n\\u0001\", \"n\": -2.5e1, \"t\": true,\n"
      " \"z\": null, \"a\": [1, {}, []]}");
  ASSERT_EQ(doc.kind, Json::Kind::kObject);
  EXPECT_EQ(doc.find("s")->text, std::string("a\"b\n\x01"));
  EXPECT_EQ(doc.find("n")->number, -25.0);
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_EQ(doc.find("z")->kind, Json::Kind::kNull);
  EXPECT_EQ(doc.find("a")->items.size(), 3u);
  EXPECT_EQ(doc.key_lines[3], 2);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, ScalarsKeepTheirSourceToken) {
  const Json doc = parse_json("[18446744073709551557, 0.1, true, false]");
  EXPECT_EQ(doc.items[0].text, "18446744073709551557");
  EXPECT_EQ(doc.items[1].text, "0.1");
  EXPECT_EQ(doc.items[1].number, 0.1);
  EXPECT_EQ(doc.items[2].text, "true");
  EXPECT_EQ(doc.items[3].text, "false");
}

TEST(Json, MalformedJsonReportsTheLine) {
  const std::string message = json_error("{\"a\": 1,\n\"b\": }");
  EXPECT_EQ(message.rfind("line 2: ", 0), 0u) << message;
}

TEST(Json, RejectsTrailingDataAndMalformedNumbers) {
  EXPECT_NE(json_error("{} {}").find("trailing"), std::string::npos);
  EXPECT_NE(json_error("[1-2]").find("malformed number '1-2'"),
            std::string::npos);
  EXPECT_NE(json_error("[1e]").find("malformed number"), std::string::npos);
  EXPECT_NE(json_error("[-]").find("malformed number"), std::string::npos);
}

TEST(Json, HundredThousandOpenBracketsThrowNamingLineOne) {
  const std::string message = json_error(std::string(100000, '['));
  EXPECT_EQ(message, "line 1: nesting deeper than 64 levels");
}

TEST(Json, NestingBoundIsExactlyKMaxJsonDepth) {
  static_assert(kMaxJsonDepth == 64);
  EXPECT_NO_THROW(parse_json(nested_arrays(kMaxJsonDepth)));
  EXPECT_NE(json_error(nested_arrays(kMaxJsonDepth + 1)).find("nesting"),
            std::string::npos);
  // Objects count as levels too, and siblings do not add up.
  std::string objects;
  for (int i = 0; i < kMaxJsonDepth; ++i) objects += "{\"k\": ";
  objects += "0" + std::string(kMaxJsonDepth, '}');
  EXPECT_NO_THROW(parse_json(objects));
  EXPECT_NO_THROW(parse_json("[" + nested_arrays(kMaxJsonDepth - 1) + ", " +
                             nested_arrays(kMaxJsonDepth - 1) + "]"));
  EXPECT_NE(json_error("{\"k\": " + nested_arrays(kMaxJsonDepth) + "}")
                .find("nesting"),
            std::string::npos);
}

TEST(Json, Escaping) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  const std::string all_bytes = [] {
    std::string out;
    for (int c = 1; c < 256; ++c) out.push_back(static_cast<char>(c));
    return out;
  }();
  EXPECT_EQ(parse_json("\"" + json_escape(all_bytes) + "\"").text, all_bytes);
}

}  // namespace
}  // namespace specure::util
