#include "qdcbir/obs/json.h"

#include <cstdio>

namespace qdcbir {
namespace obs {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace obs
}  // namespace qdcbir
