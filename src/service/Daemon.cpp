//===- service/Daemon.cpp - The omlinkd relink daemon ----------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"

#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Stopwatch.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace om64;
using namespace om64::service;

Daemon::~Daemon() {
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Opts.SocketPath.c_str());
  }
}

Error Daemon::start() {
  if (Opts.SocketPath.empty())
    return Error::failure("no socket path");
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return Error::failure(formatString(
        "socket path longer than %zu bytes: %s", sizeof(Addr.sun_path) - 1,
        Opts.SocketPath.c_str()));
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Error::failure(formatString("socket: %s", std::strerror(errno)));
  ::unlink(Opts.SocketPath.c_str()); // stale socket from a killed daemon
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0) {
    Error E = Error::failure(formatString("bind %s: %s",
                                          Opts.SocketPath.c_str(),
                                          std::strerror(errno)));
    ::close(ListenFd);
    ListenFd = -1;
    return E;
  }
  if (::listen(ListenFd, 16) != 0) {
    Error E = Error::failure(
        formatString("listen: %s", std::strerror(errno)));
    ::close(ListenFd);
    ::unlink(Opts.SocketPath.c_str());
    ListenFd = -1;
    return E;
  }
  return Error::success();
}

void Daemon::requestStop() {
  Stop.store(true);
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR); // wakes the blocking accept
}

Error Daemon::run() {
  if (ListenFd < 0)
    return Error::failure("daemon not started");
  std::vector<std::thread> Workers;
  while (!Stop.load()) {
    if (Opts.MaxRequests && Served.load() >= Opts.MaxRequests)
      break;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      if (Stop.load())
        break;
      return Error::failure(
          formatString("accept: %s", std::strerror(errno)));
    }
    Workers.emplace_back([this, Fd] { handleConnection(Fd); });
  }
  for (std::thread &T : Workers)
    T.join();
  return Error::success();
}

void Daemon::handleConnection(int Fd) {
  // One request per connection: omlinkc connects, sends one frame, reads
  // one frame. Any protocol error gets an error Response when the stream
  // is still writable, then the connection closes either way.
  Result<Frame> F = readFrame(Fd);
  Response Resp;
  if (!F) {
    Resp.Status = 1;
    Resp.Message = F.message();
    (void)writeFrame(Fd, MsgType::Response, encodeResponse(Resp));
    ::close(Fd);
    return;
  }
  Stopwatch Clock;
  switch (F->Type) {
  case MsgType::PingRequest:
    Resp.Message = "pong";
    break;
  case MsgType::ShutdownRequest:
    Resp.Message = "stopping";
    requestStop();
    break;
  case MsgType::RelinkRequest: {
    Result<RelinkRequest> Req = decodeRelinkRequest(F->Payload);
    if (!Req) {
      Resp.Status = 1;
      Resp.Message = Req.message();
    } else {
      Resp = handleRelink(*Req);
    }
    break;
  }
  case MsgType::Response:
    Resp.Status = 1;
    Resp.Message = "unexpected Response frame from client";
    break;
  }
  Resp.Micros = static_cast<uint64_t>(Clock.seconds() * 1e6);
  // Reaching the request bound must wake the accept loop, which is
  // usually already blocked in accept() again by now; without the
  // explicit stop the daemon would idle forever waiting for a request
  // it will never serve.
  if (++Served >= Opts.MaxRequests && Opts.MaxRequests)
    requestStop();
  (void)writeFrame(Fd, MsgType::Response, encodeResponse(Resp));
  ::close(Fd);
}

Response Daemon::handleRelink(const RelinkRequest &Req) {
  Response Resp;

  // Find or create this output path's warm state. Options are part of the
  // state's identity: a request with different options restarts cold
  // (the memos key per-procedure inputs, not option sets).
  ImageState *State;
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    std::unique_ptr<ImageState> &Slot = Images[Req.OutputPath];
    if (!Slot)
      Slot = std::make_unique<ImageState>();
    State = Slot.get();
  }

  std::lock_guard<std::mutex> Lock(State->M);
  uint64_t Key = optionsKey(Req.Opts);
  if (!State->Linker || State->OptionsKey != Key) {
    State->Linker = std::make_unique<om::IncrementalLinker>(Req.Opts);
    State->Linker->setCacheBudget(Opts.CacheBudgetBytes);
    State->OptionsKey = Key;
  }

  std::vector<std::vector<uint8_t>> Modules;
  Modules.reserve(Req.InputPaths.size());
  for (const std::string &Path : Req.InputPaths) {
    Result<std::vector<uint8_t>> Bytes = readFileBytes(Path);
    if (!Bytes) {
      Resp.Status = 1;
      Resp.Message = Bytes.message();
      return Resp;
    }
    Modules.push_back(Bytes.take());
  }

  Result<om::RelinkResult> R = State->Linker->relink(Modules);
  if (!R) {
    Resp.Status = 1;
    Resp.Message = R.message();
    return Resp;
  }

  if (Error E = writeFileBytes(Req.OutputPath, R->ImageBytes)) {
    Resp.Status = 1;
    Resp.Message = E.message();
    return Resp;
  }

  const om::RelinkStats &S = R->Stats;
  Resp.Warm = S.Warm;
  Resp.InputUnchanged = S.InputUnchanged;
  Resp.ModulesTotal = S.ModulesTotal;
  Resp.ModulesReparsed = S.ModulesReparsed;
  Resp.ModulesRelifted = S.ModulesRelifted;
  Resp.ProcsTotal = S.ProcsTotal;
  Resp.ProcsRelifted = S.ProcsRelifted;
  Resp.SummaryRoundHits = S.SummaryRoundHits;
  Resp.SummaryRoundMisses = S.SummaryRoundMisses;
  Resp.Message = formatString(
      "%s: %s relink, %llu/%llu modules reparsed, %llu/%llu procs "
      "relifted",
      Req.OutputPath.c_str(), S.InputUnchanged ? "no-op" : (S.Warm ? "warm" : "cold"),
      static_cast<unsigned long long>(S.ModulesReparsed),
      static_cast<unsigned long long>(S.ModulesTotal),
      static_cast<unsigned long long>(S.ProcsRelifted),
      static_cast<unsigned long long>(S.ProcsTotal));
  if (Req.Opts.Lint) {
    // The rendered findings travel in the message so omlinkc can print
    // them; an empty report means the relink is lint-clean.
    Resp.Message += formatString("\nlint: %u finding(s)", R->LintFindings);
    if (!R->LintReport.empty())
      Resp.Message += "\n" + R->LintReport;
  }
  return Resp;
}
