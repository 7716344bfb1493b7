// Verdicts on a paper harness's shape claims. Each claim prints one
// "[ok]" or "[MISS]" line, and the harness returns exit_code() from main, so
// a missed claim fails the run (and the harness's ctest).
#pragma once

#include <iostream>
#include <string>

namespace cg::bench {

class Claims {
public:
  /// Prints the claim with its verdict and remembers a miss.
  void check(const std::string& claim, bool holds) {
    std::cout << (holds ? "  [ok]   " : "  [MISS] ") << claim << "\n";
    missed_ = missed_ || !holds;
  }

  /// 0 when every claim held, 1 otherwise.
  [[nodiscard]] int exit_code() const { return missed_ ? 1 : 0; }

private:
  bool missed_ = false;
};

}  // namespace cg::bench
