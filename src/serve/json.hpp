// Forwarding header: the JSON layer lives in text/json.hpp (library
// awe_text, namespace awe::json).  Kept so that code written against the
// old awe::serve::json spelling still builds.
#pragma once

#include "text/json.hpp"

namespace awe::serve {
namespace json = awe::json;
}  // namespace awe::serve
