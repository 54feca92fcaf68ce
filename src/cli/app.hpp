// Command line driver logic (separated from main() so the argument parsing
// and end-to-end behavior are unit-testable): the one-shot run
// (sparcs-tp <graph.tg> | --workload W), the solve daemon (--serve) and its
// client verbs. usage() lists every option.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sparcs::cli {

/// Runs the driver; returns the process exit code. Output goes to `out`,
/// diagnostics to `err`.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

/// Usage text.
std::string usage();

}  // namespace sparcs::cli
