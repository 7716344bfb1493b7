// Shared harness for the Section 6.2 streaming figures: runs the 1,000
// coordinated read/write sequences for every method and payload size and
// prints the mean / stddev / p95 rows the figures plot.
#pragma once

#include <fstream>
#include <iostream>
#include <vector>

#include "stream/echo_experiment.hpp"
#include "util/stats.hpp"

namespace cg::bench {

/// Pass `--csv <path>` to a figure harness to also dump the full
/// per-sequence series (what the paper's scatter plots show) as
/// `method,payload_bytes,sequence,seconds` rows.
inline std::string csv_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string{argv[i]} == "--csv") return argv[i + 1];
  }
  return {};
}

inline void run_streaming_figure(const std::string& title,
                                 const sim::LinkSpec& link,
                                 const std::string& csv_path = {}) {
  using stream::EchoMethod;
  const std::vector<std::size_t> sizes{10, 100, 1000, 10000};
  const std::vector<EchoMethod> methods{EchoMethod::kSsh, EchoMethod::kGlogin,
                                        EchoMethod::kFast,
                                        EchoMethod::kReliable};

  std::cout << "== " << title << " ==\n"
            << "(1,000 coordinated read/write sequences per series; "
               "round-trip seconds)\n\n";

  std::ofstream csv;
  if (!csv_path.empty()) {
    csv.open(csv_path);
    csv << "method,payload_bytes,sequence,seconds\n";
  }

  TablePrinter table{{"Method", "Payload B", "Mean (ms)", "Stddev (ms)",
                      "p95 (ms)", "Max (ms)"}};
  for (const std::size_t size : sizes) {
    for (const EchoMethod method : methods) {
      stream::EchoConfig config;
      config.method = method;
      config.payload_bytes = size;
      config.sequences = 1000;
      config.seed = 20060915 + size;
      const stream::EchoResult result = run_echo_experiment(link, config);
      table.add_row({to_string(method), std::to_string(size),
                     fmt_fixed(result.round_trips_s.mean() * 1e3, 3),
                     fmt_fixed(result.round_trips_s.stddev() * 1e3, 3),
                     fmt_fixed(result.round_trips_s.percentile(95) * 1e3, 3),
                     fmt_fixed(result.round_trips_s.max() * 1e3, 3)});
      if (csv.is_open()) {
        const auto& samples = result.round_trips_s.samples();
        for (std::size_t i = 0; i < samples.size(); ++i) {
          csv << to_string(method) << ',' << size << ',' << i << ','
              << samples[i] << '\n';
        }
      }
    }
  }
  std::cout << table.render() << "\n";
  if (csv.is_open()) {
    std::cout << "per-sequence series written to " << csv_path << "\n\n";
  }
}

inline double mean_ms(const sim::LinkSpec& link, stream::EchoMethod method,
                      std::size_t payload) {
  stream::EchoConfig config;
  config.method = method;
  config.payload_bytes = payload;
  config.sequences = 1000;
  config.seed = 20060915 + payload;
  return run_echo_experiment(link, config).round_trips_s.mean() * 1e3;
}

inline double stddev_ms(const sim::LinkSpec& link, stream::EchoMethod method,
                        std::size_t payload) {
  stream::EchoConfig config;
  config.method = method;
  config.payload_bytes = payload;
  config.sequences = 1000;
  config.seed = 20060915 + payload;
  return run_echo_experiment(link, config).round_trips_s.stddev() * 1e3;
}

}  // namespace cg::bench
