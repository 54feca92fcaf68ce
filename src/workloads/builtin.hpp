// Lookup of the built-in paper workloads by name, shared by the CLI's
// --workload flag and the solve service's submit request.
#pragma once

#include <string>

#include "graph/task_graph.hpp"

namespace sparcs::workloads {

/// The task graph of the built-in workload `name`: "ar" (AR filter), "dct"
/// (4x4 DCT) or "ewf" (elliptic wave filter). Throws InvalidArgumentError
/// naming the accepted names for anything else.
graph::TaskGraph builtin_task_graph(const std::string& name);

}  // namespace sparcs::workloads
