#include "common.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "net/message.h"

namespace leasebench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

/// 1-based nearest rank of percentile q among n samples.
std::int64_t rankOf(double q, std::int64_t n) {
  const auto rank = static_cast<std::int64_t>(std::ceil(q * n));
  return std::clamp<std::int64_t>(rank, 1, n);
}

}  // namespace

std::int64_t ExactDistribution::percentile(double q) const {
  if (n_ == 0) return 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> sorted(counts_.begin(),
                                                            counts_.end());
  std::sort(sorted.begin(), sorted.end());
  const std::int64_t rank = rankOf(q, n_);
  std::int64_t seen = 0;
  for (const auto& [value, count] : sorted) {
    seen += count;
    if (seen >= rank) return value;
  }
  return sorted.back().first;
}

std::int64_t ExactDistribution::max() const {
  std::int64_t best = 0;
  for (const auto& [value, count] : counts_) best = std::max(best, value);
  return best;
}

void LatencyHistogram::add(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  std::size_t index;
  if (v < kSub) {
    index = v;
  } else {
    // Values in [2^e, 2^(e+1)) for e >= kSubBits split into kSub buckets.
    const int e = 63 - std::countl_zero(v);
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
    index = static_cast<std::size_t>(e - kSubBits + 1) * kSub + sub;
  }
  ++counts_[std::min(index, counts_.size() - 1)];
  ++n_;
  sum_ += static_cast<std::int64_t>(v);
}

double LatencyHistogram::percentile(double q) const {
  if (n_ == 0) return 0;
  const std::int64_t rank = rankOf(q, n_);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen < rank) continue;
    if (i < kSub) return static_cast<double>(i);
    const std::size_t block = i / kSub;  // >= 1
    const int e = static_cast<int>(block) + kSubBits - 1;
    const double width = std::ldexp(1.0, e - kSubBits);
    const double lo = std::ldexp(1.0, e) + width * static_cast<double>(i % kSub);
    return lo + width / 2;
  }
  return 0;
}

void TimedSink::deliver(const vlease::net::Message& msg) {
  using namespace vlease::net;
  if (invalidations_ != nullptr) {
    if (msg.payload.index() == payloadIndex<Invalidate>()) {
      ++*invalidations_;
    } else if (msg.payload.index() == payloadIndex<BatchInvalRenew>()) {
      *invalidations_ += static_cast<std::int64_t>(
          std::get<BatchInvalRenew>(msg.payload).invalidate.size());
    }
  }
  const std::int64_t t0 = nowNs();
  inner_->deliver(msg);
  span_->add(nowNs() - t0);
}

}  // namespace leasebench
