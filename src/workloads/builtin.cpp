#include "workloads/builtin.hpp"

#include "support/error.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"
#include "workloads/ewf.hpp"

namespace sparcs::workloads {

graph::TaskGraph builtin_task_graph(const std::string& name) {
  if (name == "ar") return ar_filter_task_graph();
  if (name == "dct") return dct_task_graph();
  if (name == "ewf") return ewf_task_graph();
  throw InvalidArgumentError("unknown workload '" + name +
                             "' (expected ar, dct or ewf)");
}

}  // namespace sparcs::workloads
