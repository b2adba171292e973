// The log server endpoint and its client stub.
//
// The paper implements Clio as an extension of a file server process that
// clients reach through kernel IPC; §3.2's measurements are of exactly this
// client -> IPC -> server -> block-cache path. LogServer services a
// LogService over an IpcChannel on its own thread; LogClient is the
// marshalled client stub. The wire format and the request execution live
// in src/ipc/codec.* and are shared with the TCP transport in src/net/.
#ifndef SRC_IPC_LOG_SERVER_H_
#define SRC_IPC_LOG_SERVER_H_

#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "src/clio/log_service.h"
#include "src/ipc/channel.h"
#include "src/ipc/codec.h"
#include "src/partition/partitioned_service.h"

namespace clio {

class LogServer {
 public:
  // Serves `service` (caller-owned; must outlive the server) as a
  // one-partition deployment, like the TCP server. Fails only if the
  // service's catalog names a partition other than 0.
  static Result<std::unique_ptr<LogServer>> Create(LogService* service,
                                                   IpcChannel* channel);
  ~LogServer() { Stop(); }

  LogServer(const LogServer&) = delete;
  LogServer& operator=(const LogServer&) = delete;

  // Spawns the service thread. Stop() (or destruction) shuts it down.
  void Start();
  void Stop();

  // Serves requests on the calling thread until the channel shuts down.
  void Run();

 private:
  LogServer(std::unique_ptr<PartitionedLogService> service,
            IpcChannel* channel)
      : service_(std::move(service)),
        dispatcher_(service_.get()),
        channel_(channel) {}

  std::unique_ptr<PartitionedLogService> service_;
  ServiceDispatcher dispatcher_;
  IpcChannel* channel_;
  std::thread thread_;
};

class LogClient : public LogClientBase {
 public:
  explicit LogClient(IpcChannel* channel) : channel_(channel) {}

 private:
  Result<Bytes> Call(LogOp op, const Bytes& body) override;

  IpcChannel* channel_;
};

}  // namespace clio

#endif  // SRC_IPC_LOG_SERVER_H_
