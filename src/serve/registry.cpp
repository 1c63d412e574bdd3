#include "serve/registry.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/ensure.hpp"
#include "common/hash.hpp"
#include "serve/snapshot.hpp"

namespace cal::serve {
namespace {

AnchorScreen build_screen(const Tensor& anchors, std::size_t num_aps,
                          const ScreeningThresholds& thresholds) {
  if (anchors.empty()) return AnchorScreen{};
  // Tensor copy: the registry keeps its catalogue intact for later
  // inspection and republishing while each snapshot owns its screen.
  Tensor copy = anchors;
  CAL_ENSURE(copy.rank() == 2 && copy.cols() == num_aps,
             "anchor database must be (M, " << num_aps << "), got "
                                            << copy.shape_str());
  return AnchorScreen(std::move(copy), thresholds);
}

/// Process-wide version counter: two registries can never mint the same
/// version, so ServeEngine::deploy()'s version comparison is safe even
/// across snapshots published by different (or copied-then-diverged)
/// registries — a cross-registry deploy always reconfigures.
std::uint64_t next_global_version() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

std::string TenantKey::str() const {
  std::string s = building;
  s += '/';
  s += std::to_string(floor);
  s += ':';
  s += device_profile.empty() ? "*" : device_profile;
  return s;
}

std::size_t TenantKeyHash::operator()(const TenantKey& k) const {
  // Collision quality is ample for a catalogue of venues.
  Fnv1a h;
  h.mix_bytes(k.building.data(), k.building.size());
  h.mix(k.floor);
  h.mix_bytes(k.device_profile.data(), k.device_profile.size());
  return h.value();
}

std::string to_string(Precision p) {
  return p == Precision::Int8 ? "int8" : "fp32";
}

void ModelRegistry::validate_spec(const TenantKey& key,
                                  const TenantSpec& spec) {
  CAL_ENSURE(!key.building.empty(), "tenant key needs a building name");
  CAL_ENSURE((spec.factory != nullptr) != (spec.shared_model != nullptr),
             "tenant " << key.str()
                       << " needs exactly one of factory / shared_model");
  // Quantized replicas are publish()-owned copies; a borrowed shared
  // model stays under the caller's control and cannot be swapped out.
  CAL_ENSURE(spec.precision == Precision::Fp32 || spec.factory != nullptr,
             "tenant " << key.str()
                       << " requests int8 precision, which needs a replica "
                          "factory (shared_model tenants serve fp32)");
  CAL_ENSURE(spec.num_aps > 0, "tenant " << key.str() << " needs num_aps > 0");
  if (!spec.anchors.empty())
    CAL_ENSURE(spec.anchors.rank() == 2 &&
                   spec.anchors.cols() == spec.num_aps,
               "tenant " << key.str() << " anchor database must be (M, "
                         << spec.num_aps << "), got "
                         << spec.anchors.shape_str());
  const ServiceConfig& lane = spec.service;
  CAL_ENSURE(lane.num_workers > 0,
             "tenant " << key.str() << " needs >= 1 replica slot");
  CAL_ENSURE(lane.max_batch > 0,
             "tenant " << key.str() << " needs max_batch >= 1");
  CAL_ENSURE(lane.queue_capacity > 0,
             "tenant " << key.str() << " needs queue_capacity >= 1");
  CAL_ENSURE(lane.cache_audit_rate >= 0.0 && lane.cache_audit_rate <= 1.0,
             "tenant " << key.str() << " cache audit rate out of [0,1]: "
                       << lane.cache_audit_rate);
  CAL_ENSURE(lane.quota.rate_per_s >= 0.0 && lane.quota.burst >= 0.0,
             "tenant " << key.str() << " quota must be non-negative");
  // Drift tracking feeds on screening distances; with screening disabled
  // a configured DriftPolicy would be silently inert and stale cache
  // entries would never flush — surface the misconfiguration instead.
  CAL_ENSURE(lane.drift.window == 0 || !spec.anchors.empty(),
             "tenant " << key.str()
                       << " has a drift policy but screening is disabled "
                          "(no anchor database)");
  // Construction-time validation of the drift policy numbers themselves.
  if (lane.drift.window > 0) (void)DriftMonitor(lane.drift);
}

void ModelRegistry::register_tenant(TenantKey key, TenantSpec spec) {
  validate_spec(key, spec);
  CAL_ENSURE(!contains(key), "tenant " << key.str() << " registered twice");
  versions_[key] = next_global_version();
  tenants_.emplace(std::move(key), std::move(spec));
}

void ModelRegistry::reload_tenant(const TenantKey& key, TenantSpec spec) {
  validate_spec(key, spec);
  const auto it = tenants_.find(key);
  CAL_ENSURE(it != tenants_.end(),
             "reload of unregistered tenant " << key.str());
  it->second = std::move(spec);
  versions_[key] = next_global_version();
  prune_shared_locks();
}

void ModelRegistry::remove_tenant(const TenantKey& key) {
  const auto it = tenants_.find(key);
  CAL_ENSURE(it != tenants_.end(),
             "removal of unregistered tenant " << key.str());
  tenants_.erase(it);
  versions_.erase(key);
  published_.erase(key);
  prune_shared_locks();
}

void ModelRegistry::prune_shared_locks() {
  for (auto it = shared_locks_.begin(); it != shared_locks_.end();) {
    if (it->second.expired())
      it = shared_locks_.erase(it);
    else
      ++it;
  }
}

void ModelRegistry::set_profile_fallbacks(std::vector<std::string> chain) {
  fallbacks_ = std::move(chain);
}

bool ModelRegistry::contains(const TenantKey& key) const {
  return tenants_.find(key) != tenants_.end();
}

const TenantSpec* ModelRegistry::find(const TenantKey& key) const {
  const auto it = tenants_.find(key);
  return it == tenants_.end() ? nullptr : &it->second;
}

std::uint64_t ModelRegistry::version(const TenantKey& key) const {
  const auto it = versions_.find(key);
  return it == versions_.end() ? 0 : it->second;
}

std::vector<TenantKey> ModelRegistry::keys() const {
  std::vector<TenantKey> out;
  out.reserve(tenants_.size());
  for (const auto& [key, spec] : tenants_) out.push_back(key);
  std::sort(out.begin(), out.end(),
            [](const TenantKey& a, const TenantKey& b) {
              return a.str() < b.str();
            });
  return out;
}

std::shared_ptr<const DeploymentSnapshot> ModelRegistry::publish() {
  CAL_ENSURE(!tenants_.empty(), "publish() needs >= 1 registered tenant");
  auto snap = std::make_shared<DeploymentSnapshot>();
  snap->epoch_ = ++next_epoch_;
  snap->fallbacks_ = fallbacks_;
  const auto sorted = keys();
  snap->tenants_.reserve(sorted.size());
  snap->by_key_.reserve(sorted.size());
  for (const TenantKey& key : sorted) {
    const TenantSpec& spec = tenants_.at(key);
    const std::uint64_t version = versions_.at(key);
    // Version unchanged since the last publish: share the existing
    // deployment (replicas, screen, slot free-list) instead of paying
    // the factory again — a one-venue reload costs one venue, and the
    // slot discipline spans every snapshot the deployment appears in.
    if (const auto it = published_.find(key);
        it != published_.end() && it->second->version == version) {
      snap->by_key_[key] = snap->tenants_.size();
      snap->tenants_.push_back(it->second);
      continue;
    }
    auto dep = std::make_shared<TenantDeployment>();
    dep->key = key;
    dep->version = version;
    dep->num_aps = spec.num_aps;
    dep->lane = spec.service;
    dep->screen = build_screen(spec.anchors, spec.num_aps,
                               spec.service.screening);
    if (spec.shared_model != nullptr) {
      // Borrowed model: one slot per deployment, and ONE serialization
      // mutex per underlying model across every deployment that borrows
      // it — a reload may briefly have two snapshots in flight, and
      // ILocalizer::predict is not required to be thread-safe.
      dep->replicas_.push_back(spec.shared_model);
      // Reuse the model's mutex while ANY deployment still holds it
      // (possibly one of a since-removed tenant, in flight on an old
      // snapshot); mint a fresh one only once every holder is gone.
      auto& weak = shared_locks_[spec.shared_model];
      auto lock = weak.lock();
      if (lock == nullptr) {
        lock = std::make_shared<Mutex>();
        weak = lock;
      }
      dep->shared_mu_ = std::move(lock);
    } else {
      dep->precision = spec.precision;
      dep->owned_.reserve(spec.service.num_workers);
      for (std::size_t i = 0; i < spec.service.num_workers; ++i) {
        auto replica = spec.factory();
        CAL_ENSURE(replica != nullptr,
                   "tenant " << key.str()
                             << " replica factory returned nullptr for slot "
                             << i);
        if (spec.precision == Precision::Int8) {
          // Snapshot the trained replica into its int8 inference copy;
          // the fp32 original is discarded once quantization succeeds.
          auto quantized = replica->quantize_int8();
          CAL_ENSURE(quantized != nullptr,
                     "tenant " << key.str() << " requests int8 but model '"
                               << replica->name()
                               << "' has no quantized path");
          replica = std::move(quantized);
        }
        dep->owned_.push_back(std::move(replica));
        dep->replicas_.push_back(dep->owned_.back().get());
      }
    }
    for (const baselines::ILocalizer* rep : dep->replicas_)
      dep->weight_bytes += rep->weight_bytes();
    {
      // The deployment is not shared yet, but free_slots_ is guarded by
      // slot_mu_ and the analysis (rightly) has no notion of "not yet
      // published" — take the uncontended lock.
      MutexLock lock(dep->slot_mu_);
      dep->free_slots_.reserve(dep->replicas_.size());
      for (std::size_t i = dep->replicas_.size(); i-- > 0;)
        dep->free_slots_.push_back(i);
    }
    published_[key] = dep;
    snap->by_key_[key] = snap->tenants_.size();
    snap->tenants_.push_back(std::move(dep));
  }
  return snap;
}

}  // namespace cal::serve
