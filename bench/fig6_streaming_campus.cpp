// Reproduces Figure 6: I/O streaming round-trip times on the campus grid
// (100 Mb/s university network) for ssh, Glogin, and our interposition
// agents in fast and reliable modes, at 10 B and 10 KB payloads (plus the
// intermediate sizes the text discusses).
//
// Paper shape claims:
//   - fast mode "exhibits the best transfer times" on the campus grid;
//   - Glogin "does not perform very well in the campus grid";
//   - reliable mode is "usually the slowest method" (disk overhead) for
//     small payloads, BUT "performs very well for large data transfers (it
//     is better than ssh in a campus grid)" thanks to larger internal
//     buffers (fewer I/O operations).
#include "claims.hpp"
#include "streaming_common.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  using namespace cg::bench;
  using stream::EchoMethod;

  const sim::LinkSpec campus = sim::LinkSpec::campus();
  run_streaming_figure("Figure 6: campus-grid streaming", campus,
                       csv_path_from_args(argc, argv));

  std::cout << "Shape checks against the paper:\n";
  Claims claims;
  const double fast10 = mean_ms(campus, EchoMethod::kFast, 10);
  const double ssh10 = mean_ms(campus, EchoMethod::kSsh, 10);
  const double glogin10 = mean_ms(campus, EchoMethod::kGlogin, 10);
  const double reliable10 = mean_ms(campus, EchoMethod::kReliable, 10);
  claims.check("fast is the best method at 10 B",
               fast10 < ssh10 && fast10 < glogin10 && fast10 < reliable10);
  claims.check("glogin performs poorly on campus (worse than ssh)",
               glogin10 > ssh10);
  claims.check("reliable is the slowest method at 10 B",
               reliable10 > ssh10 && reliable10 > glogin10);

  const double fast10k = mean_ms(campus, EchoMethod::kFast, 10000);
  const double ssh10k = mean_ms(campus, EchoMethod::kSsh, 10000);
  const double reliable10k = mean_ms(campus, EchoMethod::kReliable, 10000);
  claims.check("reliable beats ssh at 10 KB (larger internal buffers)",
               reliable10k < ssh10k);
  claims.check("fast still fastest at 10 KB", fast10k < reliable10k);
  return claims.exit_code();
}
