#include "bench.h"

#include <cstdio>

namespace provbench {

void Report::Failed(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "provbench: operation failed: %s\n", what.c_str());
}

bool Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "provbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

}  // namespace provbench
