// JSON string escaping shared by every JSON writer (race logs, report
// documents, provenance records, trace export).
#pragma once

#include <string>
#include <string_view>

namespace rader {

/// Append `s` to `out` escaped for the inside of a JSON string: `"` and `\`
/// get a backslash, newline and tab their short forms, and every other
/// control character below 0x20 becomes \u00XX (always four hex digits,
/// as the report-wire parser requires).
void append_json_escaped(std::string& out, std::string_view s);

/// `s` as a JSON string literal, quotes included.
std::string json_quoted(std::string_view s);

}  // namespace rader
