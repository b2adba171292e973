#include "perfbench/src/calibrate.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"

namespace clio::perfbench {

namespace {

constexpr size_t kMessageBytes = 64;
constexpr size_t kComputeBytes = 256 << 10;
constexpr int kRequestsPerRound = 32;

volatile uint64_t g_sink;  // keeps the compute rounds from being elided

double ThreadCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

bool SendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t k = send(fd, data, n, MSG_NOSIGNAL);
    if (k <= 0) {
      return false;
    }
    data += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

bool RecvAll(int fd, char* data, size_t n) {
  while (n > 0) {
    const ssize_t k = recv(fd, data, n, 0);
    if (k <= 0) {
      return false;
    }
    data += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

// A loopback connection whose server side is a receiving loop thread and a
// replying worker thread, handing each request over under a mutex.
class Echo {
 public:
  Echo() = default;
  Echo(const Echo&) = delete;  // the threads hold `this`
  Echo& operator=(const Echo&) = delete;

  bool Start() {
    const int listener = socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    bool ok = bind(listener, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
              listen(listener, 1) == 0 &&
              getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    client_ = ok ? socket(AF_INET, SOCK_STREAM, 0) : -1;
    ok = client_ >= 0 &&
         connect(client_, reinterpret_cast<sockaddr*>(&addr), len) == 0;
    server_ = ok ? accept(listener, nullptr, nullptr) : -1;
    close(listener);
    if (server_ < 0) {
      return false;
    }
    const int one = 1;
    setsockopt(client_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    setsockopt(server_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    loop_ = std::thread([this] { Loop(); });
    worker_ = std::thread([this] { Work(); });
    return true;
  }

  ~Echo() {
    if (client_ >= 0) {
      shutdown(client_, SHUT_RDWR);  // ends the loop thread's recv
    }
    if (loop_.joinable()) {
      loop_.join();
    }
    if (worker_.joinable()) {
      worker_.join();
    }
    if (client_ >= 0) {
      close(client_);
    }
    if (server_ >= 0) {
      close(server_);
    }
  }

  // One request; returns its wall time in microseconds, or -1.
  double Request() {
    char buf[kMessageBytes] = {};
    const uint64_t start = NowNs();
    if (!SendAll(client_, buf, sizeof(buf)) ||
        !RecvAll(client_, buf, sizeof(buf))) {
      return -1;
    }
    return static_cast<double>(NowNs() - start) * 1e-3;
  }

 private:
  void Loop() {
    char buf[kMessageBytes] = {};
    while (RecvAll(server_, buf, sizeof(buf))) {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
      cv_.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_one();
  }

  void Work() {
    char buf[kMessageBytes] = {};
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return pending_ > 0 || done_; });
      if (pending_ == 0) {
        return;
      }
      --pending_;
      lock.unlock();
      SendAll(server_, buf, sizeof(buf));
      lock.lock();
    }
  }

  int client_ = -1;
  int server_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  int pending_ = 0;  // requests received and not yet answered, under mu_
  bool done_ = false;  // the connection has closed, under mu_
  std::thread loop_;
  std::thread worker_;
};

// One compute round on this thread: mix every word of `src` into a hash
// and copy it to `dst`. Returns the round's CPU time in microseconds.
double ComputeRound(const std::vector<uint64_t>& src,
                    std::vector<uint64_t>* dst, uint64_t* sink) {
  const double start = ThreadCpuUs();
  uint64_t h = *sink;
  for (uint64_t w : src) {
    h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  std::memcpy(dst->data(), src.data(), src.size() * sizeof(uint64_t));
  *sink = h ^ (*dst)[h % dst->size()];
  return ThreadCpuUs() - start;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace

std::string HostSpeed::ToJson() const {
  return "{\"rtt_us\": " + JsonNumber(rtt_us) +
         ", \"cpu_us\": " + JsonNumber(cpu_us) +
         ", \"rounds\": " + std::to_string(rounds) + "}";
}

HostSpeed MeasureHostSpeed(int budget_ms) {
  HostSpeed speed;
  Echo echo;
  if (!echo.Start()) {
    return speed;
  }
  std::vector<uint64_t> src(kComputeBytes / sizeof(uint64_t));
  std::vector<uint64_t> dst(src.size());
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = Mix(i, 0xCA11B);
  }
  uint64_t sink = 0;
  std::vector<double> rtt, cpu;
  const uint64_t end = NowNs() + static_cast<uint64_t>(budget_ms) * 1'000'000;
  while (speed.rounds < 3 || NowNs() < end) {
    for (int i = 0; i < kRequestsPerRound; ++i) {
      const double us = echo.Request();
      if (us < 0) {
        return HostSpeed{};
      }
      rtt.push_back(us);
    }
    cpu.push_back(ComputeRound(src, &dst, &sink));
    ++speed.rounds;
  }
  speed.rtt_us = Median(rtt);
  speed.cpu_us = Median(cpu);
  g_sink = sink;
  return speed;
}

}  // namespace clio::perfbench
