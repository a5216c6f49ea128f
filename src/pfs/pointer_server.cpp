#include "pfs/pointer_server.hpp"

#include <stdexcept>

namespace ppfs::pfs {

PointerService::State& PointerService::state(FileId file) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    State s;
    s.lock = std::make_unique<sim::Resource>(machine_.simulation(), 1);
    it = files_.emplace(file, std::move(s)).first;
  }
  return it->second;
}

sim::Task<FileOffset> PointerService::fetch_and_add(FileId file, ByteCount len) {
  // The pointer update itself runs on the metadata node's CPU; concurrent
  // fetch_and_adds from many compute nodes serialize here.
  co_await machine_.cpu(home_).compute(service_time_);
  State& s = state(file);
  const FileOffset off = s.pointer;
  s.pointer += len;
  co_return off;
}

sim::Task<sim::ResourceGuard> PointerService::acquire_file_lock(FileId file) {
  co_await machine_.cpu(home_).compute(service_time_);
  auto guard = co_await state(file).lock->acquire();
  co_return std::move(guard);
}

FileOffset PointerService::pointer(FileId file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.pointer;
}

void PointerService::set_pointer(FileId file, FileOffset off) { state(file).pointer = off; }

sim::Task<FileOffset> CollectiveService::arrive(FileId file, int rank, int nprocs,
                                                ByteCount len, bool same_data) {
  if (rank < 0 || rank >= nprocs) throw std::invalid_argument("CollectiveService: bad rank");
  co_await machine_.cpu(home_).compute(service_time_);

  auto& slot = open_rounds_[file];
  if (!slot) {
    slot = std::make_shared<Round>();
    slot->sizes.assign(nprocs, 0);
    slot->present.assign(nprocs, false);
    slot->offsets.assign(nprocs, 0);
    slot->same_data = same_data;
    slot->done = std::make_unique<sim::Event>(machine_.simulation());
  }
  std::shared_ptr<Round> round = slot;
  if (static_cast<int>(round->sizes.size()) != nprocs || round->same_data != same_data) {
    throw std::logic_error("CollectiveService: inconsistent collective call");
  }
  if (round->present[rank]) {
    throw std::logic_error("CollectiveService: rank arrived twice in one round");
  }
  round->present[rank] = true;
  round->sizes[rank] = len;
  ++round->arrived;

  if (round->arrived == static_cast<std::size_t>(nprocs)) {
    // Last arrival: assign node-ordered offsets and advance the pointer.
    FileOffset cursor = pointers_.pointer(file);
    if (same_data) {
      for (int r = 0; r < nprocs; ++r) round->offsets[r] = cursor;
      pointers_.set_pointer(file, cursor + round->sizes[0]);
    } else {
      for (int r = 0; r < nprocs; ++r) {
        round->offsets[r] = cursor;
        cursor += round->sizes[r];
      }
      pointers_.set_pointer(file, cursor);
    }
    ++rounds_;
    open_rounds_.erase(file);  // next arrival opens a fresh round
    round->done->set();
  } else {
    co_await round->done->wait();
  }
  co_return round->offsets[rank];
}

}  // namespace ppfs::pfs
