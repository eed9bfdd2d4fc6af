#ifndef QDCBIR_OBS_JSON_H_
#define QDCBIR_OBS_JSON_H_

#include <string>
#include <string_view>

namespace qdcbir {
namespace obs {

/// Appends `s` as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, `\n` `\r` `\t` use their short escapes, other bytes
/// below 0x20 become `\u00XX`, and every other byte (UTF-8 included)
/// passes through unchanged. The one escaper behind every obs surface.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_JSON_H_
