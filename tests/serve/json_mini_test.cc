// The minimal JSON reader's integer accessors: client-supplied numbers
// convert only when they hold an integer in range, so no request can drive
// a double-to-integer conversion out of range.

#include "qdcbir/serve/json_mini.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace qdcbir {
namespace serve {
namespace {

JsonValue Parse(const std::string& text) {
  StatusOr<JsonValue> parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? *parsed : JsonValue{};
}

TEST(JsonMiniTest, AsUintAcceptsOnlyIntegersInRange) {
  struct Case {
    const char* text;
    std::uint64_t max;
    bool ok;
    std::uint64_t value;
  };
  const std::vector<Case> cases = {
      {"0", UINT64_MAX, true, 0},
      {"-0", UINT64_MAX, true, 0},
      {"42", UINT64_MAX, true, 42},
      {"4.2e1", UINT64_MAX, true, 42},
      {"9007199254740992", UINT64_MAX, true, 9007199254740992ull},
      {"18446744073709549568", UINT64_MAX, true, 18446744073709549568ull},
      {"18446744073709551616", UINT64_MAX, false, 0},  // 2^64
      {"1e30", UINT64_MAX, false, 0},
      {"1e300", UINT64_MAX, false, 0},
      {"-1", UINT64_MAX, false, 0},
      {"-1e300", UINT64_MAX, false, 0},
      {"1.5", UINT64_MAX, false, 0},
      {"0.5", UINT64_MAX, false, 0},
      {"4294967295", UINT32_MAX, true, 4294967295ull},
      {"4294967296", UINT32_MAX, false, 0},
      {"5e9", UINT32_MAX, false, 0},
      {"\"7\"", UINT64_MAX, false, 0},
      {"true", UINT64_MAX, false, 0},
      {"null", UINT64_MAX, false, 0},
      {"[1]", UINT64_MAX, false, 0},
  };
  for (const Case& c : cases) {
    const JsonValue value = Parse(c.text);
    std::uint64_t out = 12345;
    EXPECT_EQ(value.AsUint(c.max, &out), c.ok) << c.text;
    EXPECT_EQ(out, c.ok ? c.value : 12345u) << c.text;
  }
}

TEST(JsonMiniTest, UintFieldFallsBackWhenAbsentAndNamesABadField) {
  const JsonValue body = Parse(
      "{\"session\":7,\"seed\":1e30,\"k\":2.5,\"neg\":-4,\"s\":\"x\"}");
  StatusOr<std::uint64_t> session = body.UintField("session", 0);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(*session, 7u);
  StatusOr<std::uint64_t> absent = body.UintField("display_size", 21);
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(*absent, 21u);
  for (const char* field : {"seed", "k", "neg", "s"}) {
    const StatusOr<std::uint64_t> bad = body.UintField(field, 0);
    ASSERT_FALSE(bad.ok()) << field;
    EXPECT_NE(bad.status().ToString().find(std::string("\"") + field + "\""),
              std::string::npos)
        << bad.status().ToString();
  }
  EXPECT_FALSE(body.UintField("session", 0, 6).ok());  // past its max
}

TEST(JsonMiniTest, U64FieldFallsBackOnAnythingButAnInRangeInteger) {
  const JsonValue body =
      Parse("{\"a\":5,\"b\":1e30,\"c\":-1,\"d\":1.5,\"e\":\"5\"}");
  EXPECT_EQ(body.U64Field("a", 9), 5u);
  for (const char* field : {"b", "c", "d", "e", "missing"}) {
    EXPECT_EQ(body.U64Field(field, 9), 9u) << field;
  }
}

}  // namespace
}  // namespace serve
}  // namespace qdcbir
