// serve: gdlogd over loopback (--chase-threads 1 --http-threads 4) driven
// by four closed-loop connections dealing one seeded op mix: warm summary
// queries on the network program, warm marginals, warm include_events
// queries, cold dime/quarter queries under fresh shuffle seeds, and
// revalidating PATCHes of a predicate no rule reads.
#include <array>
#include <mutex>
#include <optional>
#include <thread>

#include "gdatalog/engine.h"
#include "inputs.h"
#include "process.h"
#include "requests.h"
#include "server/http.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kConnections = 4;
constexpr int kDimes = 6;
constexpr int kMarginalLists = 16;

enum Op { kWarm, kMarginals, kEvents, kCold, kPatch, kOpCount };
constexpr std::array<const char*, kOpCount> kOpNames = {
    "query_warm", "query_marginals", "query_events", "query_cold", "patch"};
constexpr std::array<const char*, kOpCount> kSpanNames = {
    "server.http.request.query_warm", "server.http.request.query_marginals",
    "server.http.request.query_events", "server.http.request.query_cold",
    "server.http.request.patch"};

/// One operation of the mix and its parameters.
struct Deal {
  Op op = kWarm;
  size_t marginal_list = 0;
  uint64_t shuffle_seed = 0;
  std::string patch_fact;
};

/// The op mix, dealt to every connection from one shared deck of 100 that
/// is shuffled again each time it runs out, so a run carries the same
/// proportions however fast each kind of op is. The order comes from
/// `order_seed`; the parameters (marginal lists, shuffle seeds, PATCH
/// facts) from `param_seed`, so slices of a run that share an order still
/// send fresh shuffle seeds and facts. `patches` counts the facts dealt in
/// the whole run and numbers the next one.
class OpDeck {
 public:
  OpDeck(uint64_t order_seed, uint64_t param_seed, size_t marginal_lists,
         uint64_t* patches)
      : order_(order_seed * 64 + 16),
        params_(param_seed * 64 + 17),
        marginal_lists_(marginal_lists),
        patches_(patches) {
    const std::array<int, kOpCount> counts = {85, 5, 2, 6, 2};
    for (int op = 0; op < kOpCount; ++op) {
      deck_.insert(deck_.end(), counts[op], static_cast<Op>(op));
    }
    next_ = deck_.size();
  }

  Deal Draw() {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ == deck_.size()) {
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[order_.Below(i)]);
      }
      next_ = 0;
    }
    Deal deal;
    deal.op = deck_[next_++];
    switch (deal.op) {
      case kMarginals:
        deal.marginal_list = params_.Below(marginal_lists_);
        break;
      case kCold:
        deal.shuffle_seed = params_.ShuffleSeed();
        break;
      case kPatch:
        deal.patch_fact = "audit(" + std::to_string(++*patches_) + ", " +
                          std::to_string(params_.Below(1'000'000)) + ").\n";
        break;
      default:
        break;
    }
    return deal;
  }

 private:
  std::mutex mu_;
  SeededRng order_, params_;
  std::vector<Op> deck_;
  size_t next_ = 0;
  size_t marginal_lists_;
  uint64_t* patches_;
};

struct Expectations {
  std::string net_id, dq_id;
  std::string warm, events, cold;
  std::vector<MarginalsExpectation> marginals;
};

struct ConnectionResult {
  std::array<Samples, kOpCount> samples;
  uint64_t ops = 0;
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<std::string> patch_facts;
};

/// One closed-loop connection until `stop_ns`. PATCHes take `writer`
/// first, so they go one at a time (gdlogd refuses a concurrent one with
/// 409); a PATCH's latency starts once it holds the lock.
void RunConnection(int port, OpDeck* deck, std::mutex* writer,
                   uint64_t stop_ns, const Expectations& expect,
                   Tracer* tracer, ConnectionResult* out) {
  std::optional<gdlog::HttpClient> client;
  while (NowNs() < stop_ns) {
    if (!client) {
      auto connected = gdlog::HttpClient::Connect("127.0.0.1", port, 60'000);
      if (!connected.ok()) {
        ++out->attempted;
        out->failures.push_back("connect: " + connected.status().ToString());
        return;
      }
      client.emplace(std::move(*connected));
    }
    const Deal deal = deck->Draw();
    const Op op = deal.op;
    std::string method = "POST";
    std::string target = "/v1/query";
    std::string body;
    std::unique_lock<std::mutex> write_lock;
    switch (op) {
      case kWarm:
        body = QueryBody(expect.net_id, 0, false);
        break;
      case kEvents:
        body = QueryBody(expect.net_id, 0, true);
        break;
      case kMarginals:
        body = QueryBody(expect.net_id, 0, false,
                         expect.marginals[deal.marginal_list].queries);
        break;
      case kCold:
        body = QueryBody(expect.dq_id, deal.shuffle_seed, false);
        break;
      case kPatch:
        out->patch_facts.push_back(deal.patch_fact);
        method = "PATCH";
        target = "/v1/programs/" + expect.net_id + "/db";
        body = PatchBody(deal.patch_fact);
        write_lock = std::unique_lock<std::mutex>(*writer);
        break;
      case kOpCount:
        break;
    }
    ScopedSpan span(tracer, kSpanNames[op], 0,
                    tracer != nullptr ? tracer->NewRequest() : 0);
    auto response = client->Request(method, target, body);
    const uint64_t ns = span.End();
    if (write_lock.owns_lock()) write_lock.unlock();
    ++out->attempted;
    bool ok = response.ok() && response->status == 200;
    if (ok) {
      const std::string& got = response->body;
      switch (op) {
        case kWarm: ok = got == expect.warm; break;
        case kEvents: ok = got == expect.events; break;
        case kCold: ok = got == expect.cold; break;
        case kMarginals:
          ok = MarginalsMatch(got, expect.marginals[deal.marginal_list]);
          break;
        case kPatch:
          ok = got.find("\"touches_rule_bodies\":false") != std::string::npos;
          break;
        case kOpCount: break;
      }
    }
    if (!ok) {
      out->failures.push_back(
          std::string(kOpNames[op]) + ": " +
          (response.ok() ? "status " + std::to_string(response->status) +
                               " body " + response->body.substr(0, 200)
                         : response.status().ToString()));
      client.reset();
      continue;
    }
    out->samples[op].Add(ns);
    ++out->ops;
  }
}

struct LoopTotals {
  std::array<Samples, kOpCount> samples;
  uint64_t ops = 0;
  double elapsed_s = 0;

  void Append(const LoopTotals& other) {
    for (int op = 0; op < kOpCount; ++op) {
      auto& ms = samples[op].ms;
      ms.insert(ms.end(), other.samples[op].ms.begin(),
                other.samples[op].ms.end());
    }
    ops += other.ops;
    elapsed_s += other.elapsed_s;
  }
};

/// Runs the connections for `seconds`, dealing from a deck whose order
/// comes from `seed` and whose parameters come from `seed` and `slice`.
LoopTotals RunConnections(int port, uint64_t seed, uint64_t slice,
                          double seconds, const Expectations& expect,
                          Tracer* tracer, Result* result,
                          std::vector<std::string>* patches) {
  uint64_t patch_count = patches->size();
  OpDeck deck(seed, seed * 8 + slice, expect.marginals.size(), &patch_count);
  std::mutex writer;
  std::vector<ConnectionResult> per(kConnections);
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(RunConnection, port, &deck, &writer, stop,
                         std::cref(expect), tracer, &per[c]);
  }
  for (std::thread& t : threads) t.join();
  LoopTotals totals;
  totals.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  for (ConnectionResult& r : per) {
    for (int op = 0; op < kOpCount; ++op) {
      auto& ms = totals.samples[op].ms;
      ms.insert(ms.end(), r.samples[op].ms.begin(), r.samples[op].ms.end());
    }
    totals.ops += r.ops;
    result->attempted += r.attempted - r.failures.size();
    for (const std::string& f : r.failures) result->Check(false, f);
    patches->insert(patches->end(), r.patch_facts.begin(),
                    r.patch_facts.end());
  }
  return totals;
}

/// Starts gdlogd, registers both programs and fills every cache the mix
/// reads: the summary space, the demand engines behind the marginal
/// queries, and a first cold query.
bool StartServer(const Config& config, const NetworkInputs& net,
                 const std::string& dq_db, Daemon* daemon,
                 Expectations* expect, Result* result) {
  if (!daemon->Start(config.gdlogd,
                     {"--port", "0", "--chase-threads", "1", "--http-threads",
                      std::to_string(kConnections)},
                     config.out_dir + "/gdlogd-serve.log")) {
    result->Check(false, "gdlogd did not start");
    return false;
  }
  auto client = gdlog::HttpClient::Connect("127.0.0.1", daemon->port(), 60'000);
  if (!client.ok()) {
    result->Check(false, "connect failed");
    return false;
  }
  auto post = [&](const std::string& target, const std::string& body) {
    auto response = client->Request("POST", target, body);
    bool ok = response.ok() &&
              (response->status == 200 || response->status == 201);
    result->Check(ok, "set-up request " + target + " failed");
    return ok ? response->body : std::string();
  };
  expect->net_id = ProgramId(post("/v1/programs",
                                  RegisterBody(kNetworkProgram, net.db)));
  expect->dq_id = ProgramId(post("/v1/programs",
                                 RegisterBody(kDimeQuarterProgram, dq_db)));
  result->Check(post("/v1/query", QueryBody(expect->net_id, 0, false)) ==
                    expect->warm,
                "first warm query differs from the in-process export");
  result->Check(post("/v1/query", QueryBody(expect->net_id, 0, true)) ==
                    expect->events,
                "first events query differs from the in-process export");
  for (const MarginalsExpectation& m : expect->marginals) {
    result->Check(MarginalsMatch(post("/v1/query",
                                      QueryBody(expect->net_id, 0, false,
                                                m.queries)),
                                 m),
                  "first marginals query is wrong");
  }
  result->Check(post("/v1/query", QueryBody(expect->dq_id, 0, false)) ==
                    expect->cold,
                "first dime/quarter query differs from the in-process export");
  return result->correct;
}

/// Prints each op kind's latencies and its realized share of the mix to
/// stderr.
void PrintLoop(const LoopTotals& loop) {
  std::string line = "perfbench: mix";
  for (int op = 0; op < kOpCount; ++op) {
    PrintSamples(kOpNames[op], loop.samples[op]);
    char share[64];
    std::snprintf(share, sizeof(share), " %s=%.2f%%", kOpNames[op],
                  loop.ops > 0 ? 100.0 * static_cast<double>(
                                             loop.samples[op].ms.size()) /
                                     static_cast<double>(loop.ops)
                               : 0.0);
    line += share;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace

Result RunServeWorkload(const Config& config) {
  Result result;
  SeededRng rng(config.seed * 8 + 3);
  NetworkInputs net = CliqueNetwork(4, rng);
  std::string dq_db = DimeQuarterDb(kDimes, rng);

  // Reference bodies from the library, in this process.
  Expectations expect;
  auto engine = gdlog::GDatalog::Create(kNetworkProgram, net.db);
  auto dq = gdlog::GDatalog::Create(kDimeQuarterProgram, dq_db);
  if (!engine.ok() || !dq.ok()) {
    result.Check(false, "Create failed");
    return result;
  }
  gdlog::ChaseOptions parallel;
  parallel.num_threads = 4;
  auto space = engine->Infer(parallel);
  auto dq_space = dq->Infer(parallel);
  if (!space.ok() || !dq_space.ok()) {
    result.Check(false, "Infer failed");
    return result;
  }
  expect.warm = ExpectedQueryBody(*engine, *space, false);
  expect.events = ExpectedQueryBody(*engine, *space, true);
  expect.cold = ExpectedQueryBody(*dq, *dq_space, false);
  std::vector<std::string> atoms;
  for (int r : net.network.routers) {
    atoms.push_back("infected(" + std::to_string(r) + ", 1)");
    atoms.push_back("uninfected(" + std::to_string(r) + ")");
  }
  for (int i = 0; i < kMarginalLists; ++i) {
    std::vector<std::string> queries;
    const uint64_t n = 1 + rng.Below(3);
    for (uint64_t k = 0; k < n; ++k) {
      queries.push_back(atoms[rng.Below(atoms.size())]);
    }
    expect.marginals.push_back(ExpectMarginals(*engine, *space, queries));
  }

  // Set-up, three times; the last server stays up.
  std::vector<double> setup_s;
  Daemon daemon;
  for (int i = 0; i < 3; ++i) {
    if (i > 0) daemon.Stop();
    const uint64_t t0 = NowNs();
    if (!StartServer(config, net, dq_db, &daemon, &expect, &result)) {
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<std::string> patches;
  std::unique_ptr<Tracer> tracer;
  LoopTotals loop;
  LayerOverrides overrides;
  if (!config.trace) {
    loop = RunConnections(daemon.port(), config.seed, 0, config.seconds,
                          expect, nullptr, &result, &patches);
  } else {
    tracer = std::make_unique<Tracer>();
    std::optional<gdlog::JsonValue> before = FetchStats(daemon.port());
    LoopTotals plain;
    for (size_t slice = 0; slice < kAbbaTraced.size(); ++slice) {
      const bool traced = kAbbaTraced[slice];
      LoopTotals part = RunConnections(
          daemon.port(), config.seed, slice, config.seconds / 4, expect,
          traced ? tracer.get() : nullptr, &result, &patches);
      (traced ? loop : plain).Append(part);
    }
    std::optional<gdlog::JsonValue> after = FetchStats(daemon.port());
    result.Check(before && after, "GET /v1/stats failed");
    if (before && after) {
      auto delta = [&](const char* section, const char* key) {
        return StatsCounter(*after, section, key) -
               StatsCounter(*before, section, key);
      };
      double hits = delta("cache", "hits");
      double lookups = hits + delta("cache", "misses") +
                       delta("cache", "coalesced");
      overrides.have_cache = true;
      overrides.cache_hit_ratio = lookups > 0 ? hits / lookups : 0;
      overrides.cache_evictions = delta("cache", "evictions");
      overrides.spaces_revalidated = delta("delta", "spaces_revalidated");
    }
    result.Add("perfbench.trace.overhead_ms",
               Median(loop.samples[kWarm].ms) -
                   Median(plain.samples[kWarm].ms),
               "ms");
  }
  PrintLoop(loop);
  const double peak_rss_mb = daemon.PeakRssMb();

  // The PATCHed facts' predicate occurs in no rule body, so the final
  // database must give the very same documents: checked from scratch.
  std::string final_db = net.db;
  for (const std::string& fact : patches) final_db += fact;
  auto final_engine = gdlog::GDatalog::Create(kNetworkProgram, final_db);
  auto final_space = final_engine.ok() ? final_engine->Infer(parallel)
                                       : final_engine.status();
  result.Check(final_space.ok() &&
                   ExpectedQueryBody(*final_engine, *final_space, false) ==
                       expect.warm &&
                   ExpectedQueryBody(*final_engine, *final_space, true) ==
                       expect.events,
               "the patched database's export differs");
  // The daemon must hold every PATCHed fact and no other: its marginals
  // of each patched audit atom and of one never patched must be those of
  // the fresh engine. A fact lies in every stable model of every
  // consistent outcome, so its bounds are both P(consistent); the
  // unpatched atom's are 0.
  if (final_space.ok()) {
    std::vector<std::string> audit;
    for (const std::string& fact : patches) {
      audit.push_back(fact.substr(0, fact.find('.')));
    }
    audit.push_back("audit(0, 0)");
    const MarginalsExpectation want =
        ExpectMarginals(*final_engine, *final_space, audit);
    bool exact = true;
    for (size_t i = 0; i < audit.size(); ++i) {
      const std::string p =
          i + 1 < audit.size() ? want.prob_consistent : std::string("0");
      exact = exact && want.lower[i] == p && want.upper[i] == p;
    }
    result.Check(exact, "a fresh engine's audit marginals are wrong");
    auto client =
        gdlog::HttpClient::Connect("127.0.0.1", daemon.port(), 60'000);
    auto response =
        client.ok() ? client->Request("POST", "/v1/query",
                                      QueryBody(expect.net_id, 0, false, audit))
                    : client.status();
    result.Check(response.ok() && response->status == 200 &&
                     MarginalsMatch(response->body, want),
                 "gdlogd's audit marginals differ from the patched database");
  }
  daemon.Stop();

  if (!config.trace) {
    AddEndToEnd(&result, setup_s, loop.samples[kWarm], loop.samples[kEvents],
                loop.ops, loop.elapsed_s, peak_rss_mb);
    return result;
  }
  RunLayerProbes(kNetworkProgram, net.db, config.seed, overrides,
                 tracer.get(), &result);
  WriteSpans(*tracer, config);
  return result;
}

}  // namespace perfbench
