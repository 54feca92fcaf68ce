#include "support/observer.hpp"

#include <ostream>

#include "support/metrics.hpp"
#include "support/span.hpp"
#include "support/telemetry.hpp"

namespace sparcs {

Observer::Observer(const Options& options)
    : metrics_(options.metrics ? std::make_unique<metrics::Registry>()
                               : nullptr),
      spans_(options.spans ? std::make_unique<trace::Recorder>() : nullptr),
      tree_(options.tree ? std::make_unique<telemetry::SearchTree>()
                         : nullptr),
      sampler_(options.telemetry != nullptr
                   ? std::make_unique<telemetry::Sampler>(
                         *options.telemetry, options.progress,
                         options.sample_interval_sec, metrics_.get())
                   : nullptr),
      log_json_(options.log_json) {}

Observer::~Observer() = default;

void Observer::write_log(const std::string& record) {
  std::lock_guard<std::mutex> lock(log_mu_);
  *log_json_ << record << '\n';
  log_json_->flush();
}

}  // namespace sparcs
