#include "core/model_store.hpp"

#include <sstream>
#include <utility>

#include "core/model_blob.hpp"

namespace awe::core {

SharedModelStore::SharedModelStore(std::string name, Backing backing)
    : name_(std::move(name)), backing_(backing) {}

SharedModelStore::~SharedModelStore() {
  std::lock_guard<std::mutex> lock(mu_);
  if (backing_ == Backing::kShm && generation_ != 0)
    unlink_shm_blob(shm_name(generation_));
}

std::string SharedModelStore::shm_name(std::uint64_t gen) const {
  return name_ + ".g" + std::to_string(gen);
}

std::uint64_t SharedModelStore::publish(const CompiledModel& model) {
  std::ostringstream os;
  model.save(os);
  return publish_packed(os.str());
}

std::uint64_t SharedModelStore::publish_packed(std::string_view blob) {
  // Region creation, the copy, and checksum verification all happen
  // before the lock: a failed publish leaves the store on its previous
  // generation, and concurrent acquire()s only ever wait for the swap.
  // The generation number is RESERVED (next_generation_ incremented) up
  // front so concurrent publishers each build into a uniquely named
  // region — reserving with `generation_ + 1` would hand two racing
  // publishers the same shm name, where the second create's replace-
  // stale-object unlink would rip the name out from under the first.
  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    gen = ++next_generation_;
  }
  const auto bytes = std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(blob.data()), blob.size());
  std::shared_ptr<const ModelBlob> region =
      backing_ == Backing::kShm ? create_shm_blob(shm_name(gen), bytes)
                                : make_heap_blob(blob);
  std::shared_ptr<const CompiledModel> model;
  try {
    model = std::make_shared<const CompiledModel>(
        CompiledModel::from_blob(region, /*verify_checksum=*/true));
  } catch (...) {
    // Never published, so nothing else unlinks the region's name.
    if (backing_ == Backing::kShm) unlink_shm_blob(shm_name(gen));
    throw;
  }

  std::shared_ptr<const CompiledModel> retired_model;
  std::uint64_t retired_gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (gen > generation_) {
      retired_model = std::move(current_);
      retired_gen = generation_;
      current_ = std::move(model);
      generation_ = gen;
    } else {
      // A publisher with a later reservation already swapped in: our
      // freshly verified generation was obsolete on arrival.  Retire it
      // without ever exposing it — generations stay monotonic for readers.
      retired_model = std::move(model);
      retired_gen = gen;
    }
    if (retired_model) retired_.push_back(retired_model);
    std::erase_if(retired_, [](const std::weak_ptr<const CompiledModel>& w) {
      return w.expired();
    });
  }
  // Unlink the retired NAME outside the lock: its pages stay mapped for
  // readers still pinning it (POSIX shm semantics), but no new reader can
  // open it and the name cannot collide with a future store.
  if (backing_ == Backing::kShm && retired_gen != 0)
    unlink_shm_blob(shm_name(retired_gen));
  return gen;
}

std::shared_ptr<const CompiledModel> SharedModelStore::acquire(
    std::uint64_t* generation_out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (generation_out) *generation_out = generation_;
  return current_;
}

std::uint64_t SharedModelStore::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

std::size_t SharedModelStore::live_generations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t live = current_ ? 1 : 0;
  for (const auto& w : retired_)
    if (!w.expired()) ++live;
  return live;
}

}  // namespace awe::core
