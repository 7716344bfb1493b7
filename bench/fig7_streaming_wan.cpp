// Reproduces Figure 7: I/O streaming round-trip times on the wide-area grid
// (UAB Barcelona <-> IFCA Santander over the Spanish academic network).
//
// Paper shape claims:
//   - for 10 B - 1 KB payloads, fast mode is similar to ssh and Glogin
//     (WAN latency dominates), "however, our method exhibits a higher
//     variance";
//   - Glogin degrades for large (10 KB) transfers;
//   - reliable mode is "similar to ssh in the wide area grid" at 10 KB.
#include "claims.hpp"
#include "streaming_common.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  using namespace cg::bench;
  using stream::EchoMethod;

  const sim::LinkSpec wan = sim::LinkSpec::wan();
  run_streaming_figure("Figure 7: wide-area (UAB<->IFCA) streaming", wan,
                       csv_path_from_args(argc, argv));

  std::cout << "Shape checks against the paper:\n";
  Claims claims;
  for (const std::size_t size : {std::size_t{10}, std::size_t{100},
                                 std::size_t{1000}}) {
    const double fast = mean_ms(wan, EchoMethod::kFast, size);
    const double ssh = mean_ms(wan, EchoMethod::kSsh, size);
    const double glogin = mean_ms(wan, EchoMethod::kGlogin, size);
    claims.check("fast ~ ssh ~ glogin at " + std::to_string(size) +
                     " B (within 35%)",
                 fast / ssh < 1.35 && fast / ssh > 0.65 && glogin / ssh < 1.35);
  }
  claims.check("fast has higher variance than ssh (WAN)",
               stddev_ms(wan, EchoMethod::kFast, 100) >
                   stddev_ms(wan, EchoMethod::kSsh, 100));
  const double ssh10k = mean_ms(wan, EchoMethod::kSsh, 10000);
  const double glogin10k = mean_ms(wan, EchoMethod::kGlogin, 10000);
  const double reliable10k = mean_ms(wan, EchoMethod::kReliable, 10000);
  claims.check("glogin degrades at 10 KB (worse than ssh)", glogin10k > ssh10k);
  claims.check("reliable ~ ssh at 10 KB (within 20%)",
               reliable10k / ssh10k < 1.2 && reliable10k / ssh10k > 0.8);
  return claims.exit_code();
}
