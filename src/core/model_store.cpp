#include "core/model_store.hpp"

#include <utility>

#include "core/model_blob.hpp"

namespace awe::core {

SharedModelStore::SharedModelStore(std::string name, Backing /*backing*/)
    : name_(std::move(name)) {}

std::uint64_t SharedModelStore::publish(const CompiledModel& model) {
  return publish_packed(model.pack());
}

std::uint64_t SharedModelStore::publish_packed(std::string_view blob) {
  // The copy and checksum verification happen before the lock: a failed
  // publish leaves the store on its previous generation without consuming
  // a number, and concurrent acquire()s only ever wait for the swap.
  auto model = std::make_shared<const CompiledModel>(
      CompiledModel::from_blob(make_heap_blob(blob), /*verify_checksum=*/true));

  // Numbering at the swap keeps generations unique and monotone however
  // many publishers race.
  std::shared_ptr<const CompiledModel> retired;  // released after the unlock
  std::lock_guard<std::mutex> lock(mu_);
  retired = std::exchange(current_, std::move(model));
  if (retired) retired_.push_back(retired);
  std::erase_if(retired_, [](const std::weak_ptr<const CompiledModel>& w) {
    return w.expired();
  });
  return ++generation_;
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
