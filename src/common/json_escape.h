#ifndef WHYQ_COMMON_JSON_ESCAPE_H_
#define WHYQ_COMMON_JSON_ESCAPE_H_

#include <string>

namespace whyq {

/// JSON string escaping for hand-rolled emitters (quotes not included):
/// `"` and `\` are backslash-escaped, \n \t \r use their short forms and
/// other control bytes become \u00XX. Shared by the stats JSON
/// (service/stats.cc) and the wire protocol (server::JsonEscape).
std::string JsonEscape(const std::string& s);

}  // namespace whyq

#endif  // WHYQ_COMMON_JSON_ESCAPE_H_
