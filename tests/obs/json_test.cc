// The one JSON string escaper behind every obs surface: each special byte
// maps to its escape, and UTF-8 passes through unchanged.

#include "qdcbir/obs/json.h"

#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"

namespace qdcbir {
namespace obs {
namespace {

TEST(AppendJsonStringTest, EscapesEachSpecialByteAndPassesUtf8Through) {
  struct Case {
    std::string_view in;
    std::string_view out;
  };
  using namespace std::string_view_literals;
  for (const Case& c : std::vector<Case>{
           {"", R"("")"},
           {"plain", R"("plain")"},
           {"\"", R"("\"")"},
           {"\\", R"("\\")"},
           {"\n", R"("\n")"},
           {"\r", R"("\r")"},
           {"\t", R"("\t")"},
           {"\x01", R"("\u0001")"},
           {"\x1f", R"("\u001f")"},
           {"\0"sv, R"("\u0000")"},
           {"\x20", R"(" ")"},
           {"\x7f", "\"\x7f\""},
           {"caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x90\xa6",
            "\"caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x90\xa6\""},
           {"a\"b\\c\r\nd", R"("a\"b\\c\r\nd")"},
       }) {
    std::string out = "prefix:";
    AppendJsonString(&out, c.in);
    EXPECT_EQ(out, "prefix:" + std::string(c.out)) << "input " << c.in;
  }
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
