// gdlogd child processes for the loopback workloads.
#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

#include <string>
#include <vector>

namespace perfbench {

/// One gdlogd started with --port 0. Its stderr (the access log) goes to
/// `log_path`. The child is killed if the benchmark dies, and Stop()
/// (also run by the destructor) ends it and waits until it has exited.
class Daemon {
 public:
  /// Starts `binary` with `args` and waits for its "listening" line.
  /// Returns false (with the child reaped) when it does not come up.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path);
  ~Daemon() { Stop(); }
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM (graceful drain), then SIGKILL after 10 s; reaps the child.
  void Stop();
  int port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }
  /// The child's peak resident set (VmHWM) in MiB, 0 if unreadable.
  double PeakRssMb() const;

 private:
  int pid_ = -1;
  int port_ = 0;
};

/// This process's peak resident set in MiB.
double SelfPeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
