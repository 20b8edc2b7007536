// JSON text helpers shared by the metric dump, the Chrome trace and the
// bench reports.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace now::obs {

/// Appends `s` escaped for the inside of a JSON string (no quotes added).
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Round-trippable rendering (`%.17g`), identical across platforms for
/// identical doubles — what keeps two-run dump diffs empty.
inline void append_exact_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace now::obs
