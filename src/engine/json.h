// JSON rendering of characterization results, for exploration front-ends
// that consume Ziggy as a service (the paper's long-term goal: "distribute
// our tuple description engine as a library, to be included into external
// exploration systems").

#ifndef ZIGGY_ENGINE_JSON_H_
#define ZIGGY_ENGINE_JSON_H_

#include <string>

#include "common/json_escape.h"
#include "engine/ziggy_engine.h"

namespace ziggy {

/// \brief Serializes a Characterization as a self-contained JSON object:
/// counts, stage timings, and one entry per view with columns, score,
/// per-kind score breakdown, tightness, p-value, headline and details.
std::string CharacterizationToJson(const Characterization& result,
                                   const Schema& schema);

}  // namespace ziggy

#endif  // ZIGGY_ENGINE_JSON_H_
