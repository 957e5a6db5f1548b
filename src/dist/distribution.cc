#include "dist/distribution.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

namespace gdlog {
namespace {

/// ln Γ(x). std::lgamma also stores the sign of Γ(x) in the global
/// `signgam`, a data race when chase workers evaluate pmfs at once;
/// lgamma_r returns the same value and keeps the sign local.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

// ---------------------------------------------------------------------------
// Parameter plumbing. Parameters arrive as ground Values; decimal program
// text becomes exact rationals (0.1 ↦ 1/10) so pmfs stay exact whenever the
// arithmetic allows.
// ---------------------------------------------------------------------------

/// Finite supports larger than this are reported as infinite so the chase
/// truncates them under its support limit (with residual-mass accounting)
/// instead of materializing billions of outcomes.
constexpr uint64_t kMaxEnumerable = uint64_t{1} << 20;

/// Above this size, exact-rational loops (powers, factorial products,
/// harmonic sums) cut over to closed-form double arithmetic: the rationals
/// would long since have gone inexact, and the loops would otherwise scale
/// with program-supplied parameters.
constexpr int64_t kExactCutover = 4096;

bool IsFiniteNumeric(const Value& v) {
  if (!v.is_numeric()) return false;
  if (v.is_double()) return std::isfinite(v.double_value());
  return true;
}

Rational ParamRational(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kBool:
      return Rational(v.bool_value() ? 1 : 0, 1);
    case Value::Kind::kInt:
      return Rational(v.int_value(), 1);
    case Value::Kind::kDouble:
      return Rational::FromDecimal(v.double_value());
    case Value::Kind::kSymbol:
      // Symbols must never masquerade as numbers: an intern id is
      // interning-order dependent. Callers gate on IsFiniteNumeric.
      return Rational::Zero();
  }
  return Rational::Zero();
}

/// r ∈ [0, 1] and not NaN.
bool IsValidProbability(const Rational& r) {
  if (std::isnan(r.ToDouble())) return false;
  return !(r < Rational::Zero()) && !(Rational::One() < r);
}

/// Exact a/b when both operands are exact; decimal-snapped double quotient
/// otherwise (FromDecimal keeps quotients like 2/8 exact and marks the rest
/// inexact while preserving the double value).
Rational RationalDiv(const Rational& a, const Rational& b) {
  if (a.exact() && b.exact() && b.numerator() != 0) {
    return a * Rational(b.denominator(), b.numerator());
  }
  return Rational::FromDecimal(a.ToDouble() / b.ToDouble());
}

/// True iff `v` is an integer-kinded value equal to `i`.
bool IsInt(const Value& v, int64_t i) {
  return v.is_int() && v.int_value() == i;
}

/// Extracts an integer parameter; integral doubles are accepted (surface
/// syntax may render counts either way). Returns false for non-integers.
bool IntParam(const Value& v, int64_t* out) {
  if (v.is_int() || v.is_bool()) {
    *out = v.int_value();
    return true;
  }
  if (v.is_double() && std::isfinite(v.double_value()) &&
      std::nearbyint(v.double_value()) == v.double_value() &&
      std::fabs(v.double_value()) < 9.2e18) {
    *out = static_cast<int64_t>(v.double_value());
    return true;
  }
  return false;
}

/// Immutable, hash-indexed parameter-table cache. The chase re-evaluates
/// the same parameter tuple once per support outcome, so parsing or
/// renormalizing on every Pmf call would make enumeration quadratic — and
/// the parallel chase calls Pmf from many threads at once, so the cache
/// must be safe for concurrent readers.
///
/// The whole table lives behind one atomically swapped shared_ptr snapshot:
/// readers atomically load the current snapshot and look their tuple up in
/// it without taking a lock; a miss parses off to the side and publishes a
/// copy-on-write successor snapshot with a compare-exchange (losing the
/// race just means someone else's snapshot won — the entry for our tuple is
/// still found or re-added on retry). Entries are shared_ptr<const T>, so a
/// reader's table survives any concurrent eviction. Invalid parameter
/// tuples cache a nullptr entry (negative caching).
///
/// The size is bounded: at kMaxEntries the successor snapshot starts over
/// from just the new entry, so a workload alternating between many tuples
/// can neither grow the table without bound nor thrash a hot entry out one
/// insert at a time.
template <typename T>
class ParamTableCache {
 public:
  static constexpr size_t kMaxEntries = 64;

  /// The parsed value for `params`, or nullptr when `parse` rejects them.
  /// `parse` is bool(const std::vector<Value>&, T*).
  template <typename ParseFn>
  std::shared_ptr<const T> Get(const std::vector<Value>& params,
                               ParseFn parse) const {
    std::shared_ptr<const Map> snapshot = std::atomic_load(&snapshot_);
    if (snapshot != nullptr) {
      auto it = snapshot->find(params);
      if (it != snapshot->end()) return it->second;
    }
    auto parsed = std::make_shared<T>();
    std::shared_ptr<const T> value;
    if (parse(params, parsed.get())) value = std::move(parsed);
    for (;;) {
      auto next = std::make_shared<Map>();
      if (snapshot != nullptr && snapshot->size() < kMaxEntries) {
        *next = *snapshot;
      }
      (*next)[params] = value;
      if (std::atomic_compare_exchange_weak(
              &snapshot_, &snapshot,
              std::shared_ptr<const Map>(std::move(next)))) {
        return value;
      }
      // Lost the race; `snapshot` now holds the winner. Reuse its entry if
      // it already covers our tuple.
      if (snapshot != nullptr) {
        auto it = snapshot->find(params);
        if (it != snapshot->end()) return it->second;
      }
    }
  }

 private:
  using Map =
      std::unordered_map<Tuple, std::shared_ptr<const T>, TupleHash>;
  mutable std::shared_ptr<const Map> snapshot_;
};

/// Inverse-CDF draw over parallel outcome/mass vectors (masses sum to ~1).
Value SampleByMasses(const std::vector<Value>& outcomes,
                     const std::vector<double>& masses, Rng* rng) {
  double u = rng->NextDouble();
  double cum = 0.0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    cum += masses[i];
    if (u < cum) return outcomes[i];
  }
  return outcomes.back();
}

/// Poisson(λ) draw via Knuth's product method — O(λ) RNG draws, so
/// callers keep λ small (≲ a few hundred; e^{-λ} must not underflow).
int64_t PoissonKnuth(double lambda, Rng* rng) {
  const double limit = std::exp(-lambda);
  int64_t k = 0;
  double prod = rng->NextDouble();
  while (prod > limit) {
    ++k;
    prod *= rng->NextDouble();
  }
  return k;
}

/// One standard-normal draw (Box–Muller).
double NormalDraw(Rng* rng) {
  double u1 = 1.0 - rng->NextDouble();  // (0, 1]
  double u2 = rng->NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

/// First outcome of a `cap`-wide truncation window for a unimodal mass
/// function whose mode (at a numerically positive mass) is known: bisects
/// past the underflowed left flank, then centers the window on the mode so
/// the enumerated outcomes carry maximal mass (a 0-based prefix would
/// capture ~nothing when the mode is far right); the chase accounts the
/// remainder as residual.
template <typename PositiveAt>
int64_t UnimodalWindowStart(int64_t mode, size_t cap,
                            PositiveAt positive_at) {
  int64_t first = 0;
  if (!positive_at(int64_t{0})) {
    int64_t lo = 0, hi = mode;
    while (lo + 1 < hi) {
      int64_t mid = lo + (hi - lo) / 2;
      if (positive_at(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    first = hi;
  }
  return std::max(first, mode - static_cast<int64_t>(cap) / 2);
}

// ---------------------------------------------------------------------------
// flip — Bernoulli over {0, 1}; flip<p>(1) = p. Invalid p degenerates on 0.
// ---------------------------------------------------------------------------

class FlipDist : public Distribution {
 public:
  std::string_view name() const override { return "flip"; }
  bool AcceptsDim(size_t dim) const override { return dim == 1; }

  Prob Pmf(const std::vector<Value>& params,
           const Value& outcome) const override {
    Rational p;
    if (!Param(params, &p)) {
      return IsInt(outcome, 0) ? Prob::One() : Prob::Zero();
    }
    if (IsInt(outcome, 1)) return Prob(p);
    if (IsInt(outcome, 0)) return Prob(Rational::One() - p);
    return Prob::Zero();
  }

  bool HasFiniteSupport(const std::vector<Value>&) const override {
    return true;
  }

  std::vector<Value> Support(const std::vector<Value>& params,
                             size_t) const override {
    Rational p;
    if (!Param(params, &p)) return {Value::Int(0)};
    std::vector<Value> support;
    if (Rational::Zero() < Rational::One() - p) support.push_back(Value::Int(0));
    if (Rational::Zero() < p) support.push_back(Value::Int(1));
    return support;
  }

  Value Sample(const std::vector<Value>& params, Rng* rng) const override {
    Rational p;
    if (!Param(params, &p)) return Value::Int(0);
    return Value::Int(rng->NextDouble() < p.ToDouble() ? 1 : 0);
  }

 private:
  static bool Param(const std::vector<Value>& params, Rational* p) {
    if (params.size() != 1 || !IsFiniteNumeric(params[0])) return false;
    *p = ParamRational(params[0]);
    return IsValidProbability(*p);
  }
};

// ---------------------------------------------------------------------------
// die — the Appendix-B Die⟨p̄⟩ over faces 1..n. When Σpᵢ ≠ 1 (or any pᵢ is
// out of range) all mass concentrates on the fallback outcome 0.
// ---------------------------------------------------------------------------

class DieDist : public Distribution {
 public:
  std::string_view name() const override { return "die"; }
  bool AcceptsDim(size_t dim) const override { return dim >= 1; }

  Prob Pmf(const std::vector<Value>& params,
           const Value& outcome) const override {
    std::shared_ptr<const FaceTable> table = Faces(params);
    if (table == nullptr) {
      return IsInt(outcome, 0) ? Prob::One() : Prob::Zero();
    }
    if (!outcome.is_int()) return Prob::Zero();
    int64_t face = outcome.int_value();
    if (face < 1 || face > static_cast<int64_t>(table->masses.size())) {
      return Prob::Zero();
    }
    return Prob(table->masses[face - 1]);
  }

  bool HasFiniteSupport(const std::vector<Value>&) const override {
    return true;
  }

  std::vector<Value> Support(const std::vector<Value>& params,
                             size_t) const override {
    std::shared_ptr<const FaceTable> table = Faces(params);
    if (table == nullptr) return {Value::Int(0)};
    return table->outcomes;
  }

  Value Sample(const std::vector<Value>& params, Rng* rng) const override {
    std::shared_ptr<const FaceTable> table = Faces(params);
    if (table == nullptr) return Value::Int(0);
    return SampleByMasses(table->outcomes, table->weights, rng);
  }

 private:
  struct FaceTable {
    std::vector<Rational> masses;   ///< per face 1..n, including zeros
    std::vector<Value> outcomes;    ///< positive-mass faces only
    std::vector<double> weights;    ///< their masses as doubles
  };

  /// Validated face table, or nullptr on invalid parameters.
  std::shared_ptr<const FaceTable> Faces(
      const std::vector<Value>& params) const {
    return cache_.Get(params, ParseFaces);
  }

  static bool ParseFaces(const std::vector<Value>& params,
                         FaceTable* table) {
    if (params.empty()) return false;
    table->masses.clear();
    table->outcomes.clear();
    table->weights.clear();
    Rational total = Rational::Zero();
    bool all_exact = true;
    for (const Value& v : params) {
      if (!IsFiniteNumeric(v)) return false;
      Rational p = ParamRational(v);
      if (!IsValidProbability(p)) return false;
      all_exact = all_exact && p.exact();
      total = total + p;
      table->masses.push_back(p);
    }
    bool valid = (all_exact && total.exact())
                     ? total == Rational::One()
                     : std::fabs(total.ToDouble() - 1.0) < 1e-9;
    if (!valid) return false;
    for (size_t i = 0; i < table->masses.size(); ++i) {
      if (Rational::Zero() < table->masses[i]) {
        table->outcomes.push_back(Value::Int(static_cast<int64_t>(i) + 1));
        table->weights.push_back(table->masses[i].ToDouble());
      }
    }
    return true;
  }

  ParamTableCache<FaceTable> cache_;
};

// ---------------------------------------------------------------------------
// discrete — explicit (outcome, mass) pairs; masses renormalize, repeated
// outcomes accumulate. Invalid parameters degenerate on 0.
// ---------------------------------------------------------------------------

class DiscreteDist : public Distribution {
 public:
  std::string_view name() const override { return "discrete"; }
  bool AcceptsDim(size_t dim) const override {
    return dim >= 2 && dim % 2 == 0;
  }

  Prob Pmf(const std::vector<Value>& params,
           const Value& outcome) const override {
    std::shared_ptr<const Entries> table = Table(params);
    if (table == nullptr) {
      return IsInt(outcome, 0) ? Prob::One() : Prob::Zero();
    }
    auto it = table->index.find(outcome);
    if (it == table->index.end()) return Prob::Zero();
    return Prob(table->masses[it->second]);
  }

  bool HasFiniteSupport(const std::vector<Value>&) const override {
    return true;
  }

  std::vector<Value> Support(const std::vector<Value>& params,
                             size_t) const override {
    std::shared_ptr<const Entries> table = Table(params);
    if (table == nullptr) return {Value::Int(0)};
    return table->outcomes;
  }

  Value Sample(const std::vector<Value>& params, Rng* rng) const override {
    std::shared_ptr<const Entries> table = Table(params);
    if (table == nullptr) return Value::Int(0);
    return SampleByMasses(table->outcomes, table->weights, rng);
  }

 private:
  struct Entries {
    std::vector<Value> outcomes;
    std::vector<Rational> masses;
    std::vector<double> weights;  ///< masses as doubles, for sampling
    /// outcome → position in the parallel vectors; makes Pmf O(1) instead
    /// of a linear scan over the support.
    std::unordered_map<Value, size_t> index;
  };

  /// Normalized table of distinct positive-mass outcomes, or nullptr on
  /// malformed parameters.
  std::shared_ptr<const Entries> Table(
      const std::vector<Value>& params) const {
    return cache_.Get(params, ParseTable);
  }

  /// Builds the normalized table of distinct positive-mass outcomes in
  /// first-occurrence order. False on malformed parameters.
  static bool ParseTable(const std::vector<Value>& params, Entries* table) {
    std::vector<Value>* outcomes = &table->outcomes;
    std::vector<Rational>* masses = &table->masses;
    if (params.size() < 2 || params.size() % 2 != 0) return false;
    outcomes->clear();
    masses->clear();
    table->index.clear();
    Rational total = Rational::Zero();
    for (size_t i = 0; i + 1 < params.size(); i += 2) {
      const Value& outcome = params[i];
      const Value& mass_value = params[i + 1];
      if (!IsFiniteNumeric(mass_value)) return false;
      Rational mass = ParamRational(mass_value);
      if (std::isnan(mass.ToDouble()) || mass < Rational::Zero()) return false;
      total = total + mass;
      auto [it, inserted] = table->index.emplace(outcome, outcomes->size());
      if (inserted) {
        outcomes->push_back(outcome);
        masses->push_back(mass);
      } else {
        (*masses)[it->second] = (*masses)[it->second] + mass;
      }
    }
    if (!(Rational::Zero() < total)) return false;
    table->index.clear();
    size_t kept = 0;
    for (size_t i = 0; i < outcomes->size(); ++i) {
      if (!(Rational::Zero() < (*masses)[i])) continue;
      (*outcomes)[kept] = (*outcomes)[i];
      (*masses)[kept] = RationalDiv((*masses)[i], total);
      table->index.emplace((*outcomes)[kept], kept);
      ++kept;
    }
    outcomes->resize(kept);
    masses->resize(kept);
    table->weights.clear();
    table->weights.reserve(kept);
    for (const Rational& m : *masses) table->weights.push_back(m.ToDouble());
    return true;
  }

  ParamTableCache<Entries> cache_;
};

// ---------------------------------------------------------------------------
// uniformint — uniform over the integer range [lo, hi]. An empty range
// (lo > hi) degenerates at lo, keeping δ total.
// ---------------------------------------------------------------------------

class UniformIntDist : public Distribution {
 public:
  std::string_view name() const override { return "uniformint"; }
  bool AcceptsDim(size_t dim) const override { return dim == 2; }

  bool HasFiniteSupport(const std::vector<Value>& params) const override {
    int64_t lo, hi;
    if (!Range(params, &lo, &hi) || hi < lo) return true;
    uint64_t n = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    return n != 0 && n <= kMaxEnumerable;
  }

  Prob Pmf(const std::vector<Value>& params,
           const Value& outcome) const override {
    int64_t lo, hi;
    if (!Range(params, &lo, &hi)) {
      return IsInt(outcome, 0) ? Prob::One() : Prob::Zero();
    }
    if (hi < lo) return IsInt(outcome, lo) ? Prob::One() : Prob::Zero();
    if (!outcome.is_int() || outcome.int_value() < lo ||
        outcome.int_value() > hi) {
      return Prob::Zero();
    }
    // Width in uint64 so ranges wider than int64 stay defined; n == 0
    // encodes the full 2^64-wide range.
    uint64_t n = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    if (n != 0 && n <= static_cast<uint64_t>(INT64_MAX)) {
      return Prob(Rational(1, static_cast<int64_t>(n)));
    }
    return Prob::FromDouble(n == 0 ? 0x1p-64 : 1.0 / static_cast<double>(n));
  }

  std::vector<Value> Support(const std::vector<Value>& params,
                             size_t limit) const override {
    int64_t lo, hi;
    if (!Range(params, &lo, &hi)) return {Value::Int(0)};
    if (hi < lo) return {Value::Int(lo)};
    size_t cap = limit > 0 ? limit : static_cast<size_t>(kMaxEnumerable);
    std::vector<Value> support;
    for (int64_t v = lo;; ++v) {
      if (support.size() >= cap) break;
      support.push_back(Value::Int(v));
      if (v == hi) break;  // avoid ++v overflow at INT64_MAX
    }
    return support;
  }

  Value Sample(const std::vector<Value>& params, Rng* rng) const override {
    int64_t lo, hi;
    if (!Range(params, &lo, &hi)) return Value::Int(0);
    if (hi < lo) return Value::Int(lo);
    uint64_t width = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    uint64_t draw =
        width == UINT64_MAX ? rng->Next() : rng->NextBounded(width + 1);
    return Value::Int(
        static_cast<int64_t>(static_cast<uint64_t>(lo) + draw));
  }

 private:
  static bool Range(const std::vector<Value>& params, int64_t* lo,
                    int64_t* hi) {
    return params.size() == 2 && IntParam(params[0], lo) &&
           IntParam(params[1], hi);
  }
};

// ---------------------------------------------------------------------------
// binomial — binomial<n, p> over 0..n with exact rational masses
// C(n,k) pᵏ (1-p)ⁿ⁻ᵏ (inexact automatically once the numerators overflow).
// ---------------------------------------------------------------------------

class BinomialDist : public Distribution {
 public:
  std::string_view name() const override { return "binomial"; }
  bool AcceptsDim(size_t dim) const override { return dim == 2; }

  Prob Pmf(const std::vector<Value>& params,
           const Value& outcome) const override {
    int64_t n;
    Rational p;
    if (!Params(params, &n, &p)) {
      return IsInt(outcome, 0) ? Prob::One() : Prob::Zero();
    }
    if (!outcome.is_int()) return Prob::Zero();
    int64_t k = outcome.int_value();
    if (k < 0 || k > n) return Prob::Zero();
    return Prob(Mass(n, k, p));
  }

  bool HasFiniteSupport(const std::vector<Value>& params) const override {
    int64_t n;
    Rational p;
    if (!Params(params, &n, &p)) return true;
    return static_cast<uint64_t>(n) < kMaxEnumerable;
  }

  std::vector<Value> Support(const std::vector<Value>& params,
                             size_t limit) const override {
    int64_t n;
    Rational p;
    if (!Params(params, &n, &p)) return {Value::Int(0)};
    // For 0 < p < 1 every k in 0..n has positive mass; the endpoints
    // degenerate. Avoids an O(n²) Mass() sweep.
    if (!(Rational::Zero() < p)) return {Value::Int(0)};
    if (p == Rational::One()) return {Value::Int(n)};
    size_t cap = limit > 0 ? limit : static_cast<size_t>(kMaxEnumerable);
    // Every k is mathematically positive for 0 < p < 1, but LogMass
    // underflows far tails to 0.0 — honor the positive-mass contract, and
    // for large n skip the underflowed left tail by bisecting to the
    // rising flank (masses are unimodal; the mode's mass ≈ 1/√(2πnpq) is
    // always positive) instead of scanning ~n/2 zero-mass ks.
    int64_t first = 0;
    if (n > kExactCutover) {
      int64_t mode =
          static_cast<int64_t>(static_cast<double>(n) * p.ToDouble());
      if (mode > n) mode = n;
      first = UnimodalWindowStart(mode, cap, [&](int64_t k) {
        return Rational::Zero() < Mass(n, k, p);
      });
    }
    std::vector<Value> support;
    for (int64_t k = first; k <= n && support.size() < cap; ++k) {
      if (Rational::Zero() < Mass(n, k, p)) {
        support.push_back(Value::Int(k));
      } else if (!support.empty()) {
        break;  // unimodal: the positive-mass region has ended
      }
    }
    return support;
  }

  Value Sample(const std::vector<Value>& params, Rng* rng) const override {
    int64_t n;
    Rational p;
    if (!Params(params, &n, &p)) return Value::Int(0);
    double prob = p.ToDouble();
    if (n > kExactCutover) {
      // Per-trial simulation would scale with the program-supplied n.
      // Pick the limit law by regime: the CLT needs np(1-p) large, so
      // skewed corners use the Poisson limit instead. Every k in [0, n]
      // has positive mass for 0 < p < 1, so clamping stays in-support.
      double mean = static_cast<double>(n) * prob;
      double qmean = static_cast<double>(n) * (1.0 - prob);
      if (mean <= 30.0) {
        int64_t k = PoissonKnuth(mean, rng);
        return Value::Int(std::min(k, n));
      }
      if (qmean <= 30.0) {
        int64_t k = n - PoissonKnuth(qmean, rng);
        return Value::Int(std::max(k, int64_t{0}));
      }
      double k = std::nearbyint(mean + std::sqrt(mean * (1.0 - prob)) *
                                           NormalDraw(rng));
      if (k < 0.0) k = 0.0;
      if (k > static_cast<double>(n)) k = static_cast<double>(n);
      return Value::Int(static_cast<int64_t>(k));
    }
    int64_t successes = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (rng->NextDouble() < prob) ++successes;
    }
    return Value::Int(successes);
  }

 private:
  static bool Params(const std::vector<Value>& params, int64_t* n,
                     Rational* p) {
    if (params.size() != 2 || !IntParam(params[0], n) || *n < 0 ||
        !IsFiniteNumeric(params[1])) {
      return false;
    }
    *p = ParamRational(params[1]);
    return IsValidProbability(*p);
  }

  static Rational Mass(int64_t n, int64_t k, const Rational& p) {
    // Exact C(n,k) pᵏ qⁿ⁻ᵏ while the rationals stay exact. The instant
    // any factor goes inexact, finish in log space: a partially-multiplied
    // double coefficient like C(2048, 1024) overflows to inf, and the
    // remaining loop iterations would scale with a program-supplied n.
    // Exactness dies within ~60 factors (int64 range), so each call is
    // effectively O(1) past that point.
    if (n > kExactCutover || !p.exact()) return LogMass(n, k, p.ToDouble());
    int64_t m = std::min(k, n - k);
    Rational coeff = Rational::One();
    for (int64_t i = 1; i <= m; ++i) {
      coeff = coeff * Rational(n - m + i, i);
      if (!coeff.exact()) return LogMass(n, k, p.ToDouble());
    }
    Rational q = Rational::One() - p;
    Rational result = coeff;
    for (int64_t i = 0; i < k; ++i) {
      result = result * p;
      if (!result.exact()) return LogMass(n, k, p.ToDouble());
    }
    for (int64_t i = 0; i < n - k; ++i) {
      result = result * q;
      if (!result.exact()) return LogMass(n, k, p.ToDouble());
    }
    return result;
  }

  /// Closed-form binomial mass in log space (the PoissonDist pattern).
  static Rational LogMass(int64_t n, int64_t k, double pd) {
    if (pd <= 0.0) return k == 0 ? Rational::One() : Rational::Zero();
    if (pd >= 1.0) return k == n ? Rational::One() : Rational::Zero();
    double nd = static_cast<double>(n), kd = static_cast<double>(k);
    double logm = LogGamma(nd + 1.0) - LogGamma(kd + 1.0) -
                  LogGamma(nd - kd + 1.0) + kd * std::log(pd) +
                  (nd - kd) * std::log1p(-pd);
    return Rational::FromDecimal(std::exp(logm));
  }
};

// ---------------------------------------------------------------------------
// geometric — number of failures before the first success; infinite support
// truncated to a prefix on enumeration. p = 1 degenerates at 0 (finitely).
// ---------------------------------------------------------------------------

class GeometricDist : public Distribution {
 public:
  std::string_view name() const override { return "geometric"; }
  bool AcceptsDim(size_t dim) const override { return dim == 1; }

  Prob Pmf(const std::vector<Value>& params,
           const Value& outcome) const override {
    Rational p;
    if (!Param(params, &p)) {
      return IsInt(outcome, 0) ? Prob::One() : Prob::Zero();
    }
    if (!outcome.is_int() || outcome.int_value() < 0) return Prob::Zero();
    int64_t k = outcome.int_value();
    if (p == Rational::One()) {
      return k == 0 ? Prob::One() : Prob::Zero();
    }
    Rational q = Rational::One() - p;
    if (k > kExactCutover) {
      // Exact powers would long since have gone inexact; stay in doubles.
      return Prob::FromDouble(p.ToDouble() *
                              std::pow(q.ToDouble(), static_cast<double>(k)));
    }
    Rational mass = p;
    for (int64_t i = 0; i < k; ++i) {
      mass = mass * q;
      if (!mass.exact()) {
        // Finish in doubles; the remaining factors are plain doubles now.
        return Prob::FromDouble(
            mass.ToDouble() *
            std::pow(q.ToDouble(), static_cast<double>(k - i - 1)));
      }
    }
    return Prob(mass);
  }

  bool HasFiniteSupport(const std::vector<Value>& params) const override {
    Rational p;
    if (!Param(params, &p)) return true;  // degenerate fallback
    return p == Rational::One();
  }

  std::vector<Value> Support(const std::vector<Value>& params,
                             size_t limit) const override {
    Rational p;
    if (!Param(params, &p) || p == Rational::One()) return {Value::Int(0)};
    if (limit == 0) limit = 1;
    std::vector<Value> support;
    support.reserve(limit);
    for (size_t k = 0; k < limit; ++k) {
      Value v = Value::Int(static_cast<int64_t>(k));
      // Masses decrease in k; stop once q^k underflows so every returned
      // outcome keeps positive mass (Pmf(0) = p > 0, so never empty).
      if (!(Pmf(params, v).value() > 0.0)) break;
      support.push_back(v);
    }
    return support;
  }

  Value Sample(const std::vector<Value>& params, Rng* rng) const override {
    Rational p;
    if (!Param(params, &p) || p == Rational::One()) return Value::Int(0);
    // Inversion: k = ⌊ln U / ln(1-p)⌋ with U ∈ (0, 1].
    double u = 1.0 - rng->NextDouble();
    double k = std::floor(std::log(u) / std::log1p(-p.ToDouble()));
    if (!(k >= 0)) k = 0;
    if (k > 9.2e18) k = 9.2e18;  // keep the cast defined for tiny p
    return Value::Int(static_cast<int64_t>(k));
  }

 private:
  static bool Param(const std::vector<Value>& params, Rational* p) {
    if (params.size() != 1 || !IsFiniteNumeric(params[0])) return false;
    *p = ParamRational(params[0]);
    // p = 0 is not a distribution over ℕ (zero mass everywhere).
    return IsValidProbability(*p) && Rational::Zero() < *p;
  }
};

// ---------------------------------------------------------------------------
// poisson — Poisson(λ); masses are inherently inexact (e^{-λ}). λ = 0 (and
// invalid λ) degenerate at 0.
// ---------------------------------------------------------------------------

class PoissonDist : public Distribution {
 public:
  std::string_view name() const override { return "poisson"; }
  bool AcceptsDim(size_t dim) const override { return dim == 1; }

  Prob Pmf(const std::vector<Value>& params,
           const Value& outcome) const override {
    double lambda;
    if (!Param(params, &lambda) || lambda == 0.0) {
      return IsInt(outcome, 0) ? Prob::One() : Prob::Zero();
    }
    if (!outcome.is_int() || outcome.int_value() < 0) return Prob::Zero();
    return Prob::FromDouble(PmfAt(lambda, outcome.int_value()));
  }

  bool HasFiniteSupport(const std::vector<Value>& params) const override {
    double lambda;
    return !Param(params, &lambda) || lambda == 0.0;
  }

  std::vector<Value> Support(const std::vector<Value>& params,
                             size_t limit) const override {
    double lambda;
    if (!Param(params, &lambda) || lambda == 0.0) return {Value::Int(0)};
    if (limit == 0) limit = 1;
    // Masses are unimodal in k and the mode's mass ≈ 1/√(2πλ) is always
    // positive; window the enumeration around the mode.
    int64_t mode = static_cast<int64_t>(lambda);
    int64_t first = UnimodalWindowStart(
        mode, limit, [&](int64_t k) { return PmfAt(lambda, k) > 0.0; });
    std::vector<Value> support;
    support.reserve(limit);
    for (int64_t k = first; support.size() < limit; ++k) {
      if (!(PmfAt(lambda, k) > 0.0)) break;  // right tail underflowed
      support.push_back(Value::Int(k));
    }
    if (support.empty()) support.push_back(Value::Int(mode));
    return support;
  }

  Value Sample(const std::vector<Value>& params, Rng* rng) const override {
    double lambda;
    if (!Param(params, &lambda) || lambda == 0.0) return Value::Int(0);
    if (lambda > 256.0) {
      // Normal approximation — Knuth rounds would scale with the
      // program-supplied rate (skew λ^{-1/2} < 7% past this threshold).
      double k = std::nearbyint(lambda + std::sqrt(lambda) * NormalDraw(rng));
      if (!(k >= 0.0)) k = 0.0;
      if (k > 9.2e18) k = 9.2e18;
      return Value::Int(static_cast<int64_t>(k));
    }
    // Knuth's product method, split additively so e^{-λ} cannot underflow
    // (Poisson(λ₁+λ₂) = Poisson(λ₁) + Poisson(λ₂)).
    int64_t total = 0;
    while (lambda > 30.0) {
      total += PoissonKnuth(30.0, rng);
      lambda -= 30.0;
    }
    total += PoissonKnuth(lambda, rng);
    return Value::Int(total);
  }

 private:
  static bool Param(const std::vector<Value>& params, double* lambda) {
    if (params.size() != 1 || !IsFiniteNumeric(params[0])) return false;
    *lambda = params[0].AsReal();
    // Beyond ~1e12 the log-space exponent in PmfAt (magnitude λ·lnλ)
    // loses absolute precision to double rounding and the masses turn to
    // garbage; treat such λ as invalid (degenerate at 0) like other
    // out-of-range parameters.
    return *lambda >= 0.0 && *lambda <= 1e12;
  }

  static double PmfAt(double lambda, int64_t k) {
    double kd = static_cast<double>(k);
    return std::exp(-lambda + kd * std::log(lambda) - LogGamma(kd + 1.0));
  }
};

// ---------------------------------------------------------------------------
// normalgrid — extension: Gaussian discretized onto the grid μ + kΔx,
// k ∈ [-K, K]. Each cell's mass is the Gaussian integral over the cell,
// Φ(((k+½)Δx)/σ) − Φ(((k−½)Δx)/σ), renormalized over the truncated grid so
// the masses sum exactly (in double arithmetic) to 1. Off-grid points carry
// no mass.
// ---------------------------------------------------------------------------

class NormalGridDist : public Distribution {
 public:
  /// `max_half_cells` is the grid half-width cap K (ExtensionOptions);
  /// range-checked by RegisterExtensionDistributions.
  explicit NormalGridDist(int64_t max_half_cells)
      : max_half_cells_(max_half_cells) {}

  std::string_view name() const override { return "normalgrid"; }
  bool AcceptsDim(size_t dim) const override { return dim == 3; }

  Prob Pmf(const std::vector<Value>& params,
           const Value& outcome) const override {
    std::shared_ptr<const Grid> grid = GetGrid(params);
    if (grid == nullptr) {
      return outcome == Fallback(params) ? Prob::One() : Prob::Zero();
    }
    if (!outcome.is_double()) return Prob::Zero();
    double x = outcome.double_value();
    double t = (x - grid->mu) / grid->step;
    double k = std::nearbyint(t);
    if (std::fabs(k) > static_cast<double>(grid->half_cells)) {
      return Prob::Zero();
    }
    if (grid->mu + k * grid->step != x) return Prob::Zero();  // off-grid
    double w =
        grid->weights[static_cast<size_t>(k + grid->half_cells)];
    return Prob::FromDouble(w / grid->total);
  }

  bool HasFiniteSupport(const std::vector<Value>&) const override {
    return true;
  }

  std::vector<Value> Support(const std::vector<Value>& params,
                             size_t limit) const override {
    std::shared_ptr<const Grid> grid = GetGrid(params);
    if (grid == nullptr) return {Fallback(params)};
    std::vector<Value> support;
    for (int64_t k = -grid->half_cells; k <= grid->half_cells; ++k) {
      if (limit > 0 && support.size() >= limit) break;
      // Edge-cell weights can underflow to 0; keep the support contract.
      if (!(grid->weights[static_cast<size_t>(k + grid->half_cells)] > 0.0)) {
        continue;
      }
      support.push_back(Value::Double(grid->mu + static_cast<double>(k) *
                                                     grid->step));
    }
    return support;
  }

  Value Sample(const std::vector<Value>& params, Rng* rng) const override {
    std::shared_ptr<const Grid> grid = GetGrid(params);
    if (grid == nullptr) return Fallback(params);
    double u = rng->NextDouble() * grid->total;
    // First cell whose cumulative weight exceeds u; flat (zero-weight)
    // cells are skipped by upper_bound.
    size_t idx = static_cast<size_t>(
        std::upper_bound(grid->cum.begin(), grid->cum.end(), u) -
        grid->cum.begin());
    if (idx >= grid->cum.size() || !(grid->weights[idx] > 0.0)) {
      return Value::Double(grid->mu);  // rounding tail: the center cell
    }
    int64_t k = static_cast<int64_t>(idx) - grid->half_cells;
    return Value::Double(grid->mu + static_cast<double>(k) * grid->step);
  }

 private:
  struct Grid {
    double mu = 0.0;
    double sigma = 1.0;
    double step = 1.0;
    int64_t half_cells = 0;       ///< K: grid spans k ∈ [-K, K].
    double total = 1.0;           ///< Σ weights, the renormalization constant.
    std::vector<double> weights;  ///< cell weights, index k + K
    std::vector<double> cum;      ///< cumulative weights, for sampling

    /// Unnormalized cell mass: the Gaussian integral over cell k, computed
    /// from |k| so the grid is symmetric to the last bit.
    double Weight(int64_t k) const {
      double kk = std::fabs(static_cast<double>(k));
      double u = step / (sigma * std::sqrt(2.0));
      if (k == 0) return std::erf(0.5 * u);
      return 0.5 * (std::erf((kk + 0.5) * u) - std::erf((kk - 0.5) * u));
    }
  };

  /// Degenerate outcome for invalid parameters: the mean when finite.
  static Value Fallback(const std::vector<Value>& params) {
    if (params.size() == 3 && IsFiniteNumeric(params[0])) {
      return Value::Double(params[0].AsReal());
    }
    return Value::Double(0.0);
  }

  /// Parsed grid for `params`, or nullptr on invalid parameters. Cached —
  /// the renormalization constant sums up to 2K+1 erf cells (8193 at the
  /// default cap), far too hot to redo per Pmf call.
  std::shared_ptr<const Grid> GetGrid(
      const std::vector<Value>& params) const {
    int64_t cap = max_half_cells_;
    return cache_.Get(params, [cap](const std::vector<Value>& p, Grid* g) {
      return ParseParams(p, g, cap);
    });
  }

  static bool ParseParams(const std::vector<Value>& params, Grid* grid,
                          int64_t max_half_cells) {
    if (params.size() != 3 || !IsFiniteNumeric(params[0]) ||
        !IsFiniteNumeric(params[1]) || !IsFiniteNumeric(params[2])) {
      return false;
    }
    grid->mu = params[0].AsReal();
    grid->sigma = params[1].AsReal();
    grid->step = params[2].AsReal();
    if (grid->sigma <= 0.0 || grid->step <= 0.0) return false;
    // Grid points must stay distinct doubles: a step below the float
    // spacing at the grid's extent would alias neighboring cells onto the
    // same value, double-counting mass. Such grids are unrepresentable —
    // treat them as invalid parameters.
    double extent = std::fabs(grid->mu) + 8.0 * grid->sigma + grid->step;
    double ulp =
        std::nextafter(extent, std::numeric_limits<double>::infinity()) -
        extent;
    if (grid->step <= 8.0 * ulp) return false;
    // Cover ±8σ (mass beyond is ~1e-15) but cap the cell count so a tiny
    // step cannot blow up enumeration; renormalization keeps δ total.
    // Clamp in the double domain: σ/Δx can exceed int64 range.
    double cells = std::ceil(8.0 * grid->sigma / grid->step);
    if (!(cells >= 1.0)) cells = 1.0;
    if (cells > static_cast<double>(max_half_cells)) {
      cells = static_cast<double>(max_half_cells);
    }
    grid->half_cells = static_cast<int64_t>(cells);
    size_t cells_count = static_cast<size_t>(2 * grid->half_cells + 1);
    grid->weights.clear();
    grid->cum.clear();
    grid->weights.reserve(cells_count);
    grid->cum.reserve(cells_count);
    double total = 0.0;
    for (int64_t k = -grid->half_cells; k <= grid->half_cells; ++k) {
      double w = grid->Weight(k);
      grid->weights.push_back(w);
      total += w;
      grid->cum.push_back(total);
    }
    grid->total = total;
    return true;
  }

  int64_t max_half_cells_;
  ParamTableCache<Grid> cache_;
};

// ---------------------------------------------------------------------------
// zipf — extension: Zipf over ranks 1..N with exponent s,
// zipf<s, N>(k) = k⁻ˢ / H_{N,s}.
// ---------------------------------------------------------------------------

class ZipfDist : public Distribution {
 public:
  std::string_view name() const override { return "zipf"; }
  bool AcceptsDim(size_t dim) const override { return dim == 2; }

  Prob Pmf(const std::vector<Value>& params,
           const Value& outcome) const override {
    std::shared_ptr<const ZData> z = Data(params);
    if (z == nullptr) {
      return IsInt(outcome, 1) ? Prob::One() : Prob::Zero();
    }
    if (!outcome.is_int() || outcome.int_value() < 1 ||
        outcome.int_value() > z->n) {
      return Prob::Zero();
    }
    return Prob::FromDouble(
        std::pow(static_cast<double>(outcome.int_value()), -z->s) / z->h);
  }

  bool HasFiniteSupport(const std::vector<Value>& params) const override {
    std::shared_ptr<const ZData> z = Data(params);
    if (z == nullptr) return true;
    return static_cast<uint64_t>(z->n) <= kMaxEnumerable;
  }

  std::vector<Value> Support(const std::vector<Value>& params,
                             size_t limit) const override {
    std::shared_ptr<const ZData> z = Data(params);
    if (z == nullptr) return {Value::Int(1)};
    size_t cap = limit > 0 ? limit : static_cast<size_t>(kMaxEnumerable);
    std::vector<Value> support;
    for (int64_t k = 1; k <= z->n; ++k) {
      if (support.size() >= cap) break;
      support.push_back(Value::Int(k));
    }
    return support;
  }

  Value Sample(const std::vector<Value>& params, Rng* rng) const override {
    std::shared_ptr<const ZData> z = Data(params);
    if (z == nullptr) return Value::Int(1);
    double s = z->s;
    int64_t n = z->n;
    double u = rng->NextDouble() * z->h;
    int64_t m = ExactTerms(n);
    // Binary search the precomputed cumulative weights of the exact region.
    size_t idx = static_cast<size_t>(
        std::upper_bound(z->cum.begin(), z->cum.end(), u) - z->cum.begin());
    if (idx < z->cum.size()) {
      return Value::Int(static_cast<int64_t>(idx) + 1);
    }
    if (n <= m) return Value::Int(n);
    // Invert the integral tail: ∫_{m+½}^{x} t⁻ˢ dt = u − cum.
    double a = static_cast<double>(m) + 0.5;
    double r = u - z->cum.back();
    double x;
    if (s == 1.0) {
      x = a * std::exp(r);
    } else {
      x = std::pow(std::pow(a, 1.0 - s) + r * (1.0 - s), 1.0 / (1.0 - s));
    }
    if (!(x >= a)) x = a + 0.5;
    if (x > static_cast<double>(n)) x = static_cast<double>(n);
    return Value::Int(static_cast<int64_t>(std::nearbyint(x)));
  }

 private:
  struct ZData {
    double s = 0.0;
    int64_t n = 0;
    double h = 1.0;           ///< H_{n,s}, the normalization constant.
    std::vector<double> cum;  ///< cumulative k⁻ˢ over the exact region
  };

  std::shared_ptr<const ZData> Data(
      const std::vector<Value>& params) const {
    return cache_.Get(params, Parse);
  }

  static bool Parse(const std::vector<Value>& params, ZData* z) {
    if (params.size() != 2 || !IsFiniteNumeric(params[0]) ||
        !IntParam(params[1], &z->n) || z->n < 1) {
      return false;
    }
    z->s = params[0].AsReal();
    // Negative exponents concentrate mass at the *last* ranks, breaking
    // the prefix-truncation (maximal-mass window) contract; the canonical
    // Zipf family has s ≥ 0, so reject the rest as invalid parameters.
    if (!std::isfinite(z->s) || z->s < 0.0) return false;
    // Keep every rank weight k^±(|s|+1) within double range AND every
    // normalized mass (whose ratio to the largest weight spans up to
    // 10^2·span) above underflow, so the normalizer cannot hit inf and
    // no rank mass collapses to 0.
    double span = (std::fabs(z->s) + 1.0) *
                  std::log10(static_cast<double>(z->n) + 1.0);
    if (span > 140.0) return false;
    // H_{n,s} = Σ_{k≤n} k⁻ˢ: exact cumulative sum for the leading ranks
    // (kept for binary-searched sampling), midpoint integral for the tail
    // so the cost never scales with a program-supplied n.
    int64_t m = ExactTerms(z->n);
    z->cum.clear();
    z->cum.reserve(static_cast<size_t>(m));
    double h = 0.0;
    for (int64_t k = 1; k <= m; ++k) {
      h += std::pow(static_cast<double>(k), -z->s);
      z->cum.push_back(h);
    }
    if (z->n > m) {
      double a = static_cast<double>(m) + 0.5;
      double b = static_cast<double>(z->n) + 0.5;
      h += z->s == 1.0 ? std::log(b / a)
                       : (std::pow(b, 1.0 - z->s) -
                          std::pow(a, 1.0 - z->s)) /
                             (1.0 - z->s);
    }
    z->h = h;
    return true;
  }

  /// How many leading ranks get summed exactly; the rest use the integral.
  static int64_t ExactTerms(int64_t n) {
    return std::min(n, kExactCutover * 16);
  }

  ParamTableCache<ZData> cache_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Status DistributionRegistry::Register(std::unique_ptr<Distribution> dist) {
  std::string name(dist->name());
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return Status::AlreadyExists("distribution '" + name +
                                 "' is already registered");
  }
  by_name_.emplace(std::move(name), std::move(dist));
  return Status::OK();
}

const Distribution* DistributionRegistry::Lookup(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return it->second.get();
}

DistributionRegistry DistributionRegistry::Builtins() {
  DistributionRegistry registry;
  registry.Register(std::make_unique<FlipDist>());
  registry.Register(std::make_unique<DieDist>());
  registry.Register(std::make_unique<DiscreteDist>());
  registry.Register(std::make_unique<UniformIntDist>());
  registry.Register(std::make_unique<BinomialDist>());
  registry.Register(std::make_unique<GeometricDist>());
  registry.Register(std::make_unique<PoissonDist>());
  return registry;
}

Status RegisterExtensionDistributions(DistributionRegistry* registry,
                                      const ExtensionOptions& options) {
  // The cap bounds both enumeration and the cached weight tables; the
  // upper limit matches kMaxEnumerable so a single grid can never claim a
  // support the chase would refuse to materialize elsewhere.
  constexpr int64_t kMaxHalfCellsLimit = int64_t{1} << 20;
  if (options.normalgrid_max_half_cells < 1 ||
      options.normalgrid_max_half_cells > kMaxHalfCellsLimit) {
    return Status::InvalidArgument(
        "normalgrid_max_half_cells must be in [1, 2^20], got " +
        std::to_string(options.normalgrid_max_half_cells));
  }
  GDLOG_RETURN_IF_ERROR(registry->Register(
      std::make_unique<NormalGridDist>(options.normalgrid_max_half_cells)));
  GDLOG_RETURN_IF_ERROR(registry->Register(std::make_unique<ZipfDist>()));
  return Status::OK();
}

}  // namespace gdlog
