// Reproduces the paper's §3.2 log-writing measurements:
//
//   "The average time to write a 'null' log entry was 2.0 ms. For a 50-byte
//    log entry, the average time was 2.9 ms. Of these times, 0.5 ms-1 ms
//    were taken up by the basic synchronous client-server IPC (write)
//    operation. The cost of generating the timestamp was roughly 400 us.
//    The cost of maintaining and periodically logging entrymap information
//    ... was low: only about 70 us for each written log entry, on average."
//
// Configuration mirrors the paper: client and server in separate contexts
// joined by a synchronous request/reply transport — here the real one, a
// NetLogClient calling a NetLogServer over loopback TCP, in place of the
// V-System's kernel IPC — with 1 KB blocks, N = 16, complete 14-byte
// timestamped headers, and device writes asynchronous w.r.t. the client
// (no force). The breakdown rows isolate each component the paper names;
// the round-trip row is the measured client-side time minus the measured
// server-side append.
#include "bench/bench_util.h"

#include <cinttypes>

#include "src/net/net_client.h"
#include "src/net/net_server.h"

namespace clio {
namespace bench {
namespace {

int Writes() { return FastMode() ? 300 : 2000; }

double Mean(const std::vector<double>& samples) {
  double total = 0;
  for (double v : samples) {
    total += v;
  }
  return samples.empty() ? 0.0 : total / static_cast<double>(samples.size());
}

struct SizeSamples {
  std::vector<double> null_us;
  std::vector<double> fifty_us;
};

// Times `count` rounds of one null and one 50-byte timestamped append,
// interleaved so connection warm-up and drift fall on both sizes alike.
// `append(path, payload)` performs one append.
template <typename AppendFn>
SizeSamples TimeAppendPairs(AppendFn append, const char* null_path,
                            const char* fifty_path, int count) {
  Rng rng(1);
  const Bytes fifty = FillPayload(&rng, 50);
  SizeSamples samples;
  samples.null_us.reserve(count);
  samples.fifty_us.reserve(count);
  for (int i = 0; i < count; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    BENCH_CHECK_OK(append(null_path, Bytes{}));
    samples.null_us.push_back(UsSince(t0));
    t0 = std::chrono::steady_clock::now();
    BENCH_CHECK_OK(append(fifty_path, fifty));
    samples.fifty_us.push_back(UsSince(t0));
  }
  return samples;
}

SizeSamples TimeDirectAppends(LogService* service, int count) {
  WriteOptions opts;
  opts.timestamped = true;
  return TimeAppendPairs(
      [&](const char* path, const Bytes& payload) {
        return service->Append(path, payload, opts).status();
      },
      "/direct", "/direct", count);
}

void Run() {
  const int kWrites = Writes();
  PrintHeader("Section 3.2: log writing cost breakdown",
              "paper section 3.2 measurements");

  auto b = BenchService::Make(/*block_size=*/1024,
                              /*capacity_blocks=*/1 << 18,
                              /*degree=*/16, /*cache_blocks=*/4096);
  BENCH_CHECK_OK(b.service->CreateLogFile("/null").status());
  BENCH_CHECK_OK(b.service->CreateLogFile("/fifty").status());
  BENCH_CHECK_OK(b.service->CreateLogFile("/direct").status());

  // Client and server over loopback TCP; the server executes each append
  // against the same service the direct rows below call in-process.
  auto server = NetLogServer::Start(b.service.get());
  BENCH_CHECK_OK(server.status());
  auto client = NetLogClient::Connect((*server)->port());
  BENCH_CHECK_OK(client.status());

  SizeSamples client_samples = TimeAppendPairs(
      [&](const char* path, const Bytes& payload) {
        return (*client)->Append(path, payload, /*timestamped=*/true).status();
      },
      "/null", "/fifty", kWrites);
  double null_us = Mean(client_samples.null_us);
  double fifty_us = Mean(client_samples.fifty_us);
  (*client)->Disconnect();
  (*server)->Stop();

  // Server-side costs without the client-server hop.
  SizeSamples direct_samples = TimeDirectAppends(b.service.get(), kWrites);
  double direct_null_us = Mean(direct_samples.null_us);
  double direct_fifty_us = Mean(direct_samples.fifty_us);

  // Timestamp generation cost in isolation.
  auto start = std::chrono::steady_clock::now();
  Timestamp sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink ^= b.clock->NowUnique();
  }
  double ts_us = UsSince(start) / 100000;
  (void)sink;

  // Entrymap upkeep: total emission events vs entries written, and the
  // marginal cost measured by comparing N=16 against a degree so large
  // that no entrymap entry is ever emitted at this volume size.
  auto no_entrymap = BenchService::Make(1024, 1 << 18, /*degree=*/1024,
                                        4096);
  BENCH_CHECK_OK(no_entrymap.service->CreateLogFile("/direct").status());
  double bare_us =
      Mean(TimeDirectAppends(no_entrymap.service.get(), kWrites).fifty_us);
  double entrymap_us = direct_fifty_us > bare_us
                           ? direct_fifty_us - bare_us
                           : 0.0;

  std::printf("%-44s | %-12s | %s\n", "quantity", "measured", "paper");
  std::printf("---------------------------------------------+------------"
              "--+----------\n");
  std::printf("%-44s | %9.1f us | 2000 us\n",
              "null entry write, client over loopback TCP", null_us);
  std::printf("%-44s | %9.1f us | 2900 us\n",
              "50-byte entry write, client over loopback TCP", fifty_us);
  std::printf("%-44s | %9.1f us | 500-1000 us\n",
              "of which: client-server round trip",
              null_us - direct_null_us);
  std::printf("%-44s | %9.3f us | ~400 us\n",
              "timestamp generation (per call)", ts_us);
  std::printf("%-44s | %9.1f us | n/a\n",
              "server-side null entry append", direct_null_us);
  std::printf("%-44s | %9.1f us | n/a\n",
              "server-side 50-byte entry append", direct_fifty_us);
  std::printf("%-44s | %9.2f us | ~70 us\n",
              "entrymap maintenance per entry (marginal)", entrymap_us);

  std::printf("\nShape check (paper's conclusions):\n");
  std::printf("  - 50-byte write costs more than null write:        %s\n",
              fifty_us > null_us ? "yes" : "NO");
  std::printf("  - IPC dominates the synchronous write cost:        %s\n",
              (null_us - direct_null_us) > direct_null_us ? "yes" : "NO");
  std::printf("  - entrymap upkeep is small vs total server cost:   %s\n",
              entrymap_us < direct_fifty_us ? "yes" : "NO");

  BenchReport report("write_latency");
  report.AddSamples("ipc_null_append", client_samples.null_us);
  report.AddSamples("ipc_50b_append", client_samples.fifty_us);
  report.AddSamples("direct_null_append", direct_samples.null_us);
  report.AddSamples("direct_50b_append", direct_samples.fifty_us);
  report.AddMean("timestamp", 100000, ts_us);
  report.AddMean("entrymap_marginal", kWrites, entrymap_us);
  if (!report.Write()) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace clio

int main() {
  clio::bench::Run();
  return 0;
}
