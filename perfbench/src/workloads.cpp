#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {kFig5Sparse.name, kFig5Dense.name,
                                                  "serve_stream"};
  return names;
}

Result run_workload(const std::string& name, const Options& opt) {
  if (name == kFig5Sparse.name) return run_fig5(opt, kFig5Sparse);
  if (name == kFig5Dense.name) return run_fig5(opt, kFig5Dense);
  if (name == "serve_stream") return run_serve_stream(opt);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
