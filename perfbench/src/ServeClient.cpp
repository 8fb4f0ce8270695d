//===- perfbench/src/ServeClient.cpp - Live server and load generator -----===//

#include "ServeClient.h"

#include "Common.h"

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {
std::string errnoText(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

/// Waits up to \p Seconds for \p Pid to exit; true when it did.
bool waitExit(pid_t Pid, double Seconds, int &Status) {
  Clock::time_point Start = Clock::now();
  for (;;) {
    pid_t R = waitpid(Pid, &Status, WNOHANG);
    if (R == Pid)
      return true;
    if (R < 0)
      return true; // already reaped
    if (secondsSince(Start) > Seconds)
      return false;
    usleep(2000);
  }
}
} // namespace

ServerProcess::ServerProcess(const std::string &Binary,
                             const std::vector<std::string> &Args) {
  int Pipe[2];
  if (pipe(Pipe) != 0)
    throw FatalError{errnoText("pipe")};
  Pid = fork();
  if (Pid < 0)
    throw FatalError{errnoText("fork")};
  if (Pid == 0) {
    // The server must not outlive a benchmark that is killed mid-run.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    int Null = open("/dev/null", O_RDONLY);
    if (Null >= 0)
      dup2(Null, STDIN_FILENO);
    dup2(Pipe[1], STDOUT_FILENO);
    close(Pipe[0]);
    close(Pipe[1]);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Binary.c_str()));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    execv(Binary.c_str(), Argv.data());
    _exit(127);
  }
  close(Pipe[1]);
  // The server prints `stagg serve: listening on HOST:PORT` once bound.
  std::string Line;
  char C;
  pollfd P{Pipe[0], POLLIN, 0};
  while (true) {
    if (poll(&P, 1, 30000) <= 0 || read(Pipe[0], &C, 1) != 1) {
      close(Pipe[0]);
      kill(Pid, SIGKILL);
      int Status = 0;
      waitpid(Pid, &Status, 0);
      throw FatalError{"stagg serve did not report a listening port"};
    }
    if (C == '\n')
      break;
    Line += C;
  }
  close(Pipe[0]);
  size_t Colon = Line.rfind(':');
  if (Line.find("listening on") != std::string::npos &&
      Colon != std::string::npos)
    Port = std::atoi(Line.c_str() + Colon + 1);
  if (Port <= 0) {
    kill(Pid, SIGKILL);
    int Status = 0;
    waitpid(Pid, &Status, 0);
    throw FatalError{"unexpected server banner: " + Line};
  }
}

void ServerProcess::stop() {
  if (Pid <= 0)
    return;
  pid_t Child = Pid;
  Pid = -1;
  kill(Child, SIGTERM);
  int Status = 0;
  if (!waitExit(Child, 30, Status)) {
    kill(Child, SIGKILL);
    waitpid(Child, &Status, 0);
    throw FatalError{"stagg serve did not drain within 30 s"};
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    throw FatalError{"stagg serve exited abnormally (status " +
                     std::to_string(Status) + ")"};
}

ServerProcess::~ServerProcess() {
  if (Pid <= 0)
    return;
  kill(Pid, SIGTERM);
  int Status = 0;
  if (!waitExit(Pid, 30, Status)) {
    kill(Pid, SIGKILL);
    waitpid(Pid, &Status, 0);
  }
}

Connection::Connection(int Port) {
  Fd = socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    throw FatalError{errnoText("socket")};
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0) {
    close(Fd);
    throw FatalError{errnoText("connect")};
  }
}

Connection::~Connection() {
  if (Fd >= 0)
    close(Fd);
}

void Connection::send(const std::string &Frame) {
  std::string Data = Frame + "\n";
  size_t Sent = 0;
  while (Sent < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Sent, Data.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      throw std::runtime_error(errnoText("send"));
    Sent += static_cast<size_t>(N);
  }
}

std::string Connection::readLine() {
  for (;;) {
    size_t NewLine = Buffer.find('\n', Head);
    if (NewLine != std::string::npos) {
      std::string Line = Buffer.substr(Head, NewLine - Head);
      Head = NewLine + 1;
      if (Head == Buffer.size()) {
        Buffer.clear();
        Head = 0;
      }
      return Line;
    }
    char Chunk[65536];
    ssize_t N = recv(Fd, Chunk, sizeof Chunk, 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      throw std::runtime_error("connection closed by the server");
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

std::vector<std::string> perfbench::readFrameEvents(Connection &Conn,
                                                    bool Execute) {
  std::vector<std::string> Lines;
  for (;;) {
    Lines.push_back(Conn.readLine());
    const std::string &L = Lines.back();
    if (L.find("\"event\":\"error\"") != std::string::npos)
      throw std::runtime_error("error event: " + L.substr(0, 300));
    if (Execute ? L.find("\"event\":\"result\"") != std::string::npos
                : L.find("\"event\":\"done\"") != std::string::npos)
      return Lines;
  }
}

LoopResult
perfbench::runClosedLoop(int Clients, size_t Ops,
                         const std::function<OpOutcome(int, size_t)> &Body) {
  LoopResult R;
  std::atomic<size_t> Next{0};
  std::mutex Mutex;
  std::vector<std::vector<double>> Latency(static_cast<size_t>(Clients));
  Clock::time_point Start = Clock::now();
  auto Client = [&](int C) {
    for (size_t Op = Next++; Op < Ops; Op = Next++) {
      OpOutcome Out;
      try {
        Out = Body(C, Op);
      } catch (const std::exception &E) {
        Out.Error = E.what();
      } catch (const FatalError &E) {
        Out.Error = E.Message;
      }
      if (Out.Error.empty()) {
        Latency[static_cast<size_t>(C)].push_back(Out.Seconds * 1e3);
        continue;
      }
      std::lock_guard<std::mutex> Lock(Mutex);
      ++R.Failed;
      if (R.Errors.size() < 5)
        R.Errors.push_back("op " + std::to_string(Op) + ": " + Out.Error);
    }
  };
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();
  R.WallSeconds = secondsSince(Start);
  R.Attempted = static_cast<int64_t>(Ops);
  for (const std::vector<double> &L : Latency)
    R.LatencyMs.insert(R.LatencyMs.end(), L.begin(), L.end());
  return R;
}
