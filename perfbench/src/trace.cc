#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s\n{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer),
      name_(name),
      id_(tracer != nullptr ? tracer->NewSpanId() : 0),
      parent_(parent),
      request_(request),
      start_ns_(NowNs()) {}

uint64_t ScopedSpan::End() {
  if (ended_) return duration_ns_;
  ended_ = true;
  uint64_t end_ns = NowNs();
  duration_ns_ = end_ns - start_ns_;
  if (tracer_ != nullptr) {
    tracer_->Add(Span{id_, parent_, request_, name_, start_ns_, end_ns});
  }
  return duration_ns_;
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto parent = index.find(s.parent);
    if (s.parent == 0 || parent == index.end()) continue;
    const Span& p = spans[parent->second];
    uint64_t lo = std::max(s.start_ns, p.start_ns);
    uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[parent->second].emplace_back(lo, hi);
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t run_lo = 0;
    uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans) {
  std::map<std::string, SpanSummary> out;
  for (const Span& span : spans) {
    SpanSummary& sum = out[span.name];
    double ms = static_cast<double>(span.duration_ns()) / 1e6;
    sum.durations_ms.push_back(ms);
    sum.total_ms += ms;
  }
  return out;
}

}  // namespace perfbench
