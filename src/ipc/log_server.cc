#include "src/ipc/log_server.h"

#include <utility>

namespace clio {

Result<std::unique_ptr<LogServer>> LogServer::Create(LogService* service,
                                                     IpcChannel* channel) {
  CLIO_ASSIGN_OR_RETURN(std::unique_ptr<PartitionedLogService> single,
                        PartitionedLogService::Borrow(service));
  return std::unique_ptr<LogServer>(new LogServer(std::move(single), channel));
}

void LogServer::Start() {
  thread_ = std::thread([this] { Run(); });
}

void LogServer::Stop() {
  channel_->Shutdown();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void LogServer::Run() {
  IpcMessage request;
  while (channel_->WaitForRequest(&request)) {
    IpcMessage reply;
    reply.op = request.op;
    reply.body = dispatcher_.Dispatch(static_cast<LogOp>(request.op),
                                      request.body);
    channel_->Reply(std::move(reply));
  }
}

// ---------------------------------------------------------------------------
// LogClient

Result<Bytes> LogClient::Call(LogOp op, const Bytes& body) {
  IpcMessage request;
  request.op = static_cast<uint32_t>(op);
  request.body = body;
  CLIO_ASSIGN_OR_RETURN(IpcMessage reply, channel_->Call(request));
  return DecodeReplyBody(reply.body);
}

}  // namespace clio
