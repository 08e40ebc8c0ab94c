#include "backend/sharded.hpp"

#include <algorithm>

namespace iiot::backend {

// ---- ShardedStore -----------------------------------------------------

ShardedStore::ShardedStore(std::uint32_t shards, RetentionPolicy retention,
                           runner::Engine* pool)
    : map_(shards), pool_(pool), group_(map_.shards()) {
  shards_.reserve(map_.shards());
  for (std::uint32_t i = 0; i < map_.shards(); ++i) {
    shards_.emplace_back(retention);
  }
}

ShardedStore::SeriesRef ShardedStore::intern(std::string_view series) {
  const std::uint32_t s = map_.shard_of_topic(series);
  return pack(s, shards_[s].intern(series));
}

ShardedStore::SeriesRef ShardedStore::find(std::string_view series) const {
  const std::uint32_t s = map_.shard_of_topic(series);
  const SeriesId local = shards_[s].find(series);
  return local == kInvalidSeries ? kNoSeries : pack(s, local);
}

const std::string& ShardedStore::name(SeriesRef ref) const {
  static const std::string kEmpty;
  const std::uint32_t s = shard_of(ref);
  return s < shards_.size() ? shards_[s].name(local_of(ref)) : kEmpty;
}

void ShardedStore::append(SeriesRef ref, sim::Time at, double value) {
  const std::uint32_t s = shard_of(ref);
  if (s >= shards_.size()) return;
  shards_[s].append(local_of(ref), at, value);
}

void ShardedStore::append_batch(SeriesRef ref, const Point* pts,
                                std::size_t n) {
  const std::uint32_t s = shard_of(ref);
  if (s >= shards_.size()) return;
  shards_[s].append_batch(local_of(ref), pts, n);
}

void ShardedStore::append_bulk(std::span<const Slice> slices) {
  ++stats_.bulk_calls;
  const std::size_t n = shards_.size();
  for (auto& g : group_) g.clear();
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const std::uint32_t s = shard_of(slices[i].ref);
    if (s >= n || slices[i].n == 0) continue;
    group_[s].push_back(static_cast<std::uint32_t>(i));
    stats_.bulk_points += slices[i].n;
  }
  // One worker owns one whole shard: per-shard append order is the input
  // order, so the final state matches the serial loop at any job count.
  const runner::Engine::Task work = [&](std::size_t s) {
    for (const std::uint32_t i : group_[s]) {
      shards_[s].append_batch(local_of(slices[i].ref), slices[i].pts,
                              slices[i].n);
    }
  };
  if (pool_ != nullptr && n > 1) {
    pool_->run(n, work);
  } else {
    for (std::size_t s = 0; s < n; ++s) work(s);
  }
}

std::optional<Point> ShardedStore::latest(SeriesRef ref) const {
  const std::uint32_t s = shard_of(ref);
  if (s >= shards_.size()) return std::nullopt;
  return shards_[s].latest(local_of(ref));
}

std::vector<Point> ShardedStore::query(SeriesRef ref, sim::Time from,
                                       sim::Time to) const {
  const std::uint32_t s = shard_of(ref);
  if (s >= shards_.size()) return {};
  return shards_[s].query(local_of(ref), from, to);
}

std::vector<Point> ShardedStore::downsample(SeriesRef ref, sim::Time from,
                                            sim::Time to,
                                            sim::Duration bucket) const {
  const std::uint32_t s = shard_of(ref);
  if (s >= shards_.size()) return {};
  return shards_[s].downsample(local_of(ref), from, to, bucket);
}

agg::PartialAggregate ShardedStore::aggregate(SeriesRef ref, sim::Time from,
                                              sim::Time to) const {
  const std::uint32_t s = shard_of(ref);
  if (s >= shards_.size()) return {};
  return shards_[s].aggregate(local_of(ref), from, to);
}

std::size_t ShardedStore::points(SeriesRef ref) const {
  const std::uint32_t s = shard_of(ref);
  if (s >= shards_.size()) return 0;
  return shards_[s].points(local_of(ref));
}

void ShardedStore::aggregate_each(std::span<const SeriesRef> refs,
                                  sim::Time from, sim::Time to,
                                  agg::PartialAggregate* out) const {
  ++stats_.multi_aggregates;
  const std::size_t n = shards_.size();
  std::vector<std::vector<std::uint32_t>> groups(n);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    out[i] = agg::PartialAggregate{};  // unknown refs stay empty
    const std::uint32_t s = shard_of(refs[i]);
    if (s < n) groups[s].push_back(static_cast<std::uint32_t>(i));
  }
  // Slot-keyed writes (out[i]) — the aggregation is a pure function of
  // the argument list, independent of shard count and worker count.
  const runner::Engine::Task work = [&](std::size_t s) {
    for (const std::uint32_t i : groups[s]) {
      out[i] = shards_[s].aggregate(local_of(refs[i]), from, to);
    }
  };
  if (pool_ != nullptr && n > 1) {
    pool_->run(n, work);
  } else {
    for (std::size_t s = 0; s < n; ++s) work(s);
  }
}

agg::PartialAggregate ShardedStore::aggregate_many(
    std::span<const SeriesRef> refs, sim::Time from, sim::Time to) const {
  std::vector<agg::PartialAggregate> parts(refs.size());
  aggregate_each(refs, from, to, parts.data());
  agg::PartialAggregate total;
  // Canonical merge order = argument order: bit-identical at any shard
  // count (a "fixed shard order" fold would reorder float sums whenever
  // the shard count changes the partition).
  for (const agg::PartialAggregate& p : parts) total.merge(p);
  stats_.merged_partials += parts.size();
  return total;
}

std::size_t ShardedStore::series_count() const {
  std::size_t n = 0;
  for (const TimeSeriesStore& s : shards_) n += s.series_count();
  return n;
}

std::uint64_t ShardedStore::total_appended() const {
  std::uint64_t n = 0;
  for (const TimeSeriesStore& s : shards_) n += s.total_appended();
  return n;
}

std::vector<std::string> ShardedStore::series_names() const {
  std::vector<std::string> out;
  out.reserve(series_count());
  for (const TimeSeriesStore& s : shards_) {
    const auto names = s.series_names();
    out.insert(out.end(), names.begin(), names.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- ShardedBus -------------------------------------------------------

ShardedBus::ShardedBus(std::uint32_t shards, runner::Engine* pool)
    : map_(shards), pool_(pool), group_(map_.shards()) {
  shards_.reserve(map_.shards());
  for (std::uint32_t i = 0; i < map_.shards(); ++i) shards_.emplace_back();
}

std::uint32_t ShardedBus::route(std::string_view topic) const {
  ++stats_.routed;
  if (map_.shards() == 1) return 0;
  const std::string_view level = ShardMap::first_level(topic);
  auto it = route_memo_.find(level);
  if (it != route_memo_.end()) {
    ++stats_.route_memo_hits;
    return it->second;
  }
  const std::uint32_t s = map_.shard_of_key(level);
  route_memo_.emplace(std::string(level), s);
  return s;
}

ShardedBus::SubId ShardedBus::subscribe(std::string filter, Handler handler) {
  const SubId id = next_id_++;
  const std::string_view level = ShardMap::first_level(filter);
  std::vector<std::pair<std::uint32_t, TopicBus::SubId>> locals;
  if (level == "+" || level == "#") {
    // Wildcard-rooted: every shard can carry a matching topic. The
    // handler is shared, not copied — captured state must not fork.
    auto shared = std::make_shared<Handler>(std::move(handler));
    locals.reserve(shards_.size());
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      locals.emplace_back(
          s, shards_[s].subscribe(
                 filter, [shared](const std::string& topic, BytesView p) {
                   (*shared)(topic, p);
                 }));
    }
  } else {
    const std::uint32_t s = route(filter);
    locals.emplace_back(
        s, shards_[s].subscribe(std::move(filter), std::move(handler)));
  }
  subs_.emplace(id, std::move(locals));
  ++active_;
  return id;
}

void ShardedBus::unsubscribe(SubId id) {
  auto it = subs_.find(id);
  if (it == subs_.end()) return;
  for (const auto& [s, local] : it->second) shards_[s].unsubscribe(local);
  subs_.erase(it);
  --active_;
}

void ShardedBus::publish(const std::string& topic, BytesView payload) {
  shards_[route(topic)].publish(topic, payload);
}

void ShardedBus::publish_batch(const std::string& topic,
                               std::span<const BytesView> payloads) {
  shards_[route(topic)].publish_batch(topic, payloads);
}

void ShardedBus::publish_batch(std::span<const BusMessage> msgs) {
  std::size_t i = 0;
  while (i < msgs.size()) {
    // Same run-coalescing as TopicBus::publish_batch, with one route per
    // run; runs dispatch in input order, so serial multi-topic batches
    // are observably identical to a single bus.
    std::size_t j = i + 1;
    while (j < msgs.size() && msgs[j].topic == msgs[i].topic) ++j;
    std::vector<BytesView> views;
    views.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) {
      views.emplace_back(msgs[k].payload.data(), msgs[k].payload.size());
    }
    shards_[route(msgs[i].topic)].publish_batch(msgs[i].topic, views);
    i = j;
  }
}

void ShardedBus::publish_batch_parallel(std::span<const BusMessage> msgs) {
  ++stats_.parallel_batches;
  const std::size_t n = shards_.size();
  if (pool_ == nullptr || n == 1) {
    publish_batch(msgs);
    return;
  }
  for (auto& g : group_) g.clear();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    group_[route(msgs[i].topic)].push_back(static_cast<std::uint32_t>(i));
  }
  // One worker per shard; within a shard, messages keep input order, so
  // every topic's (and therefore every subscription's) delivery sequence
  // matches the serial path. Cross-shard interleaving is unordered —
  // handlers must be shard-affine (see header).
  const runner::Engine::Task work = [&](std::size_t s) {
    const std::vector<std::uint32_t>& idx = group_[s];
    std::size_t i = 0;
    std::vector<BytesView> views;
    while (i < idx.size()) {
      std::size_t j = i + 1;
      while (j < idx.size() && msgs[idx[j]].topic == msgs[idx[i]].topic) {
        ++j;
      }
      views.clear();
      views.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) {
        views.emplace_back(msgs[idx[k]].payload.data(),
                           msgs[idx[k]].payload.size());
      }
      shards_[s].publish_batch(msgs[idx[i]].topic, views);
      i = j;
    }
  };
  pool_->run(n, work);
}

std::uint64_t ShardedBus::published() const {
  std::uint64_t n = 0;
  for (const TopicBus& b : shards_) n += b.published();
  return n;
}

std::uint64_t ShardedBus::delivered() const {
  std::uint64_t n = 0;
  for (const TopicBus& b : shards_) n += b.delivered();
  return n;
}

}  // namespace iiot::backend
