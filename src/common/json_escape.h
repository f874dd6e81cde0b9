// JSON string escaping: the one escaper every JSON writer in the project
// (characterization JSON, wire replies, the metrics registry) goes through.

#ifndef ZIGGY_COMMON_JSON_ESCAPE_H_
#define ZIGGY_COMMON_JSON_ESCAPE_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace ziggy {

/// \brief Escapes a string for embedding in a JSON document. Output is
/// pure ASCII: control characters and all non-ASCII input are emitted as
/// \uXXXX escapes — code points beyond the basic plane (emoji, rare CJK)
/// as surrogate pairs, which is the only way JSON can carry them; bytes
/// that are not valid UTF-8 become U+FFFD so the result is always valid
/// JSON.
std::string JsonEscape(const std::string& s);

/// \brief Inverse of JsonEscape: decodes backslash escapes (\" \\ \/ \n
/// \r \t \b \f and \uXXXX, including surrogate *pairs* for non-BMP code
/// points — lone surrogates are rejected). The input is the string
/// *body*, without the surrounding quotes. Errors on truncated or
/// unknown escapes.
Result<std::string> JsonUnescape(std::string_view s);

}  // namespace ziggy

#endif  // ZIGGY_COMMON_JSON_ESCAPE_H_
