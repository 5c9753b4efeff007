#include "core/logical/logical_plan.h"

#include <sstream>

namespace unify::core {

std::string LogicalPlan::Signature() const {
  std::ostringstream os;
  for (const auto& n : nodes) {
    os << n.op_name << "{";
    for (const auto& [k, v] : n.args) os << k << "=" << v << ";";
    os << "}";
  }
  return os.str();
}

}  // namespace unify::core
