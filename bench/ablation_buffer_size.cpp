// Ablation A3: internal buffer size of the interposition transport. The
// paper attributes the reliable mode's surprising 10 KB win over ssh to
// "larger internal buffers ... the disk overhead is compensated by a
// smaller number of IO operations". This ablation sweeps the transport's
// packet payload (its internal buffer) from ssh-like 1460 B up to 64 KB and
// shows where the crossover against ssh appears.
#include <iostream>

#include "sim/disk.hpp"
#include "stream/reliable_channel.hpp"
#include "util/stats.hpp"

namespace {

using namespace cg;
using namespace cg::literals;

/// Round-trip time for one 10 KB request/response pair over a reliable
/// channel whose underlying transport uses the given internal buffer.
double reliable_round_trip_ms(std::size_t buffer_bytes, std::size_t payload) {
  sim::Simulation sim;
  sim::LinkSpec spec = sim::LinkSpec::campus();
  spec.jitter_stddev = Duration::zero();
  sim::Link link{spec, Rng{1}};

  // Hold everything constant at ssh's per-packet costs and vary ONLY the
  // internal buffer, isolating the effect the paper credits for the 10 KB
  // crossover.
  stream::ChannelSpec channel_spec = stream::ChannelSpec::ssh();
  channel_spec.packet_payload = buffer_bytes;
  channel_spec.jitter_factor = 1.0;
  stream::SimChannel request{sim, link, channel_spec, Rng{2}};
  stream::SimChannel response{sim, link, channel_spec, Rng{3}};

  sim::DiskModel client_disk;
  sim::DiskModel server_disk;
  stream::ReliableChannel rel_request{sim, request, client_disk, &server_disk};
  stream::ReliableChannel rel_response{sim, response, server_disk, &client_disk};

  RunningStats rtt;
  for (int i = 0; i < 100; ++i) {
    const SimTime start = sim.now();
    bool done = false;
    rel_request.send(payload, [&](std::size_t) {
      rel_response.send(payload, [&](std::size_t) {
        rtt.add((sim.now() - start).to_seconds() * 1e3);
        done = true;
      });
    });
    sim.run();
    if (!done) break;
  }
  return rtt.mean();
}

double ssh_round_trip_ms(std::size_t payload) {
  sim::Simulation sim;
  sim::LinkSpec spec = sim::LinkSpec::campus();
  spec.jitter_stddev = Duration::zero();
  sim::Link link{spec, Rng{1}};
  stream::SimChannel request{sim, link, stream::ChannelSpec::ssh(), Rng{2}};
  stream::SimChannel response{sim, link, stream::ChannelSpec::ssh(), Rng{3}};
  RunningStats rtt;
  for (int i = 0; i < 100; ++i) {
    const SimTime start = sim.now();
    request.send(payload, [&](std::size_t) {
      response.send(payload, [&](std::size_t) {
        rtt.add((sim.now() - start).to_seconds() * 1e3);
      });
    });
    sim.run();
  }
  return rtt.mean();
}

}  // namespace

int main() {
  constexpr std::size_t kPayload = 10'000;
  std::cout << "== Ablation A3: transport internal buffer size ==\n"
            << "(reliable-mode 10 KB round trip on campus vs buffer size; "
               "ssh as the fixed baseline)\n\n";

  const double ssh_ms = ssh_round_trip_ms(kPayload);
  std::cout << "ssh baseline: " << cg::fmt_fixed(ssh_ms, 3) << " ms\n\n";

  cg::TablePrinter table{{"Buffer (B)", "Reliable RTT (ms)", "vs ssh"}};
  bool crossed = false;
  for (const std::size_t buffer :
       {std::size_t{1460}, std::size_t{4096}, std::size_t{8192},
        std::size_t{16384}, std::size_t{32768}, std::size_t{65536}}) {
    const double ms = reliable_round_trip_ms(buffer, kPayload);
    const bool wins = ms < ssh_ms;
    crossed = crossed || wins;
    table.add_row({std::to_string(buffer), cg::fmt_fixed(ms, 3),
                   wins ? "faster" : "slower"});
  }
  std::cout << table.render() << "\n";
  std::cout << (crossed
                    ? "[ok]   large internal buffers flip the 10 KB contest "
                      "in reliable mode's favour (the paper's explanation)\n"
                    : "[MISS] no buffer size beats ssh at 10 KB\n");
  return crossed ? 0 : 1;
}
