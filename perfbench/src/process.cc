#include "process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

bool Daemon::Start(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& log_path) {
  int out[2];
  if (::pipe(out) != 0) return false;
  int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return false;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    // Nothing else of the benchmark's (sockets, other daemons' pipes)
    // may outlive it in the child.
    for (int fd = STDERR_FILENO + 1; fd < 1024; ++fd) ::close(fd);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  ::close(log);
  if (pid < 0) {
    ::close(out[0]);
    return false;
  }
  pid_ = pid;
  // The daemon prints "gdlogd listening on http://HOST:PORT" once bound.
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (line.find('\n') == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{out[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[256];
    ssize_t n = ::read(out[0], buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  ::close(out[0]);
  size_t colon = line.rfind(':');
  if (line.find("listening") == std::string::npos ||
      colon == std::string::npos) {
    Stop();
    return false;
  }
  port_ = std::atoi(line.c_str() + colon + 1);
  return port_ > 0;
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

double SelfPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
