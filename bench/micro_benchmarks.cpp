// Hot-path microbenchmarks (google-benchmark): the JDL parser/evaluator, the
// event queue, the frame codec, the flush buffer, and the fair-share update.
#include <benchmark/benchmark.h>

#include "broker/fair_share.hpp"
#include "gsi/credential.hpp"
#include "interpose/wire.hpp"
#include "jdl/eval.hpp"
#include "jdl/job_description.hpp"
#include "jdl/parser.hpp"
#include "sim/simulation.hpp"
#include "stream/flush_buffer.hpp"

namespace {

using namespace cg;
using namespace cg::literals;

const char* kJdlSource =
    "Executable = \"interactive_mpich-g2_app\";\n"
    "JobType = {\"interactive\", \"mpich-g2\"};\n"
    "NodeNumber = 8;\n"
    "StreamingMode = \"reliable\";\n"
    "MachineAccess = \"shared\";\n"
    "PerformanceLoss = 10;\n"
    "Requirements = other.Arch == \"i686\" && other.FreeCPUs >= 2 && "
    "other.MemoryMB >= 512;\n"
    "Rank = other.FreeCPUs * 2 - other.QueuedJobs;\n";

void BM_JdlParse(benchmark::State& state) {
  for (auto _ : state) {
    auto ad = jdl::parse_classad(kJdlSource);
    benchmark::DoNotOptimize(ad);
  }
}
BENCHMARK(BM_JdlParse);

void BM_JdlValidate(benchmark::State& state) {
  for (auto _ : state) {
    auto jd = jdl::JobDescription::parse(kJdlSource);
    benchmark::DoNotOptimize(jd);
  }
}
BENCHMARK(BM_JdlValidate);

void BM_JdlRequirementsEval(benchmark::State& state) {
  auto job = jdl::parse_classad(kJdlSource).value();
  jdl::ClassAd machine;
  machine.set_string("Arch", "i686");
  machine.set_int("FreeCPUs", 4);
  machine.set_int("MemoryMB", 1024);
  machine.set_int("QueuedJobs", 1);
  for (auto _ : state) {
    const bool match = jdl::symmetric_match(job, machine);
    benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_JdlRequirementsEval);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    long counter = 0;
    for (int i = 0; i < events; ++i) {
      sim.schedule(Duration::micros(i % 1000), [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_EventCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.schedule(1_s, [] {}));
    }
    for (const auto& h : handles) sim.cancel(h);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventCancel);

void BM_FrameEncodeDecode(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  interpose::Frame frame;
  frame.type = interpose::FrameType::kStdout;
  frame.payload.assign(payload_size, 'x');
  for (auto _ : state) {
    const std::string wire = interpose::encode_frame(frame);
    interpose::FrameDecoder decoder;
    decoder.feed(wire);
    auto out = decoder.next();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload_size));
}
BENCHMARK(BM_FrameEncodeDecode)->Arg(64)->Arg(4096)->Arg(65536);

void BM_FlushBufferAppend(benchmark::State& state) {
  sim::Simulation sim;
  std::size_t sink = 0;
  stream::FlushBufferConfig config;
  config.capacity = 64 * 1024;
  stream::FlushBuffer buffer{
      sim, config,
      stream::FlushBuffer::FlushFn{
          [&sink](stream::ChunkRef d) { sink += d.size(); }}};
  const std::string line = "a line of application output ending in newline\n";
  for (auto _ : state) {
    buffer.append(line);
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_FlushBufferAppend);

void BM_FairShareUpdate(benchmark::State& state) {
  const auto users = static_cast<std::uint64_t>(state.range(0));
  sim::Simulation sim;
  broker::FairShareConfig config;
  config.total_resources = 100;
  broker::FairShare fs{sim, config};
  IdGenerator<JobId> jobs;
  for (std::uint64_t u = 1; u <= users; ++u) {
    fs.job_started(UserId{u}, jobs.next(), 1.0, 1);
  }
  for (auto _ : state) {
    fs.force_update();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(users));
}
BENCHMARK(BM_FairShareUpdate)->Arg(10)->Arg(100)->Arg(1000);

void BM_GsiVerifyChain(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  gsi::CertificateAuthority ca{"/O=CrossGrid/CN=CA", SimTime::zero(),
                               Duration::seconds(365 * 24 * 3600), 0xca};
  std::vector<gsi::Credential> ancestry;
  ancestry.push_back(ca.issue("/O=CrossGrid/CN=user", SimTime::zero(),
                              Duration::seconds(30 * 24 * 3600)));
  for (int i = 0; i < depth; ++i) {
    auto proxy = gsi::create_proxy(ancestry.back(), SimTime::zero(),
                                   Duration::seconds(12 * 3600),
                                   static_cast<std::uint64_t>(i));
    ancestry.push_back(std::move(proxy.value()));
  }
  const auto chain = gsi::make_chain(ancestry);
  const SimTime now = SimTime::from_seconds(10);
  for (auto _ : state) {
    const Status ok = gsi::verify_chain(chain, ca.root_certificate(), now);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_GsiVerifyChain)->Arg(1)->Arg(4)->Arg(8);

void BM_GsiSign(benchmark::State& state) {
  std::uint64_t digest = 0x123456789abcdefULL;
  for (auto _ : state) {
    digest = gsi::sign(digest, 0xfeedULL);
    benchmark::DoNotOptimize(digest);
  }
}
BENCHMARK(BM_GsiSign);

}  // namespace

BENCHMARK_MAIN();
