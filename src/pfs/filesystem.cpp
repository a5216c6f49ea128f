#include "pfs/filesystem.hpp"

#include <stdexcept>

namespace ppfs::pfs {

PfsFileSystem::PfsFileSystem(hw::Machine& machine, PfsParams params)
    : machine_(machine),
      params_(std::move(params)),
      metadata_node_(machine.io_node(0)),
      pointers_(machine, metadata_node_, params_.pointer_service_time),
      collectives_(machine, metadata_node_, pointers_, params_.pointer_service_time),
      tokens_(machine, metadata_node_, params_.pointer_service_time,
              params_.control_message_bytes) {
  servers_.reserve(static_cast<std::size_t>(machine.io_node_count()));
  for (int i = 0; i < machine.io_node_count(); ++i) {
    servers_.emplace_back(machine, i, params_, content_arena_)
        .set_topology_epoch_counter(&topology_epoch_);
  }
}

StripeAttrs PfsFileSystem::default_attrs() const {
  StripeAttrs attrs;
  attrs.stripe_unit = params_.ufs.block_bytes;
  attrs.stripe_group.clear();
  for (int i = 0; i < static_cast<int>(servers_.size()); ++i) {
    attrs.stripe_group.push_back(i);
  }
  return attrs;
}

PfsFileMeta& PfsFileSystem::create(const std::string& name) {
  return create(name, default_attrs());
}

PfsFileMeta& PfsFileSystem::create(const std::string& name, StripeAttrs attrs) {
  if (files_.count(name)) throw std::invalid_argument("PFS: file exists: " + name);
  for (int io : attrs.stripe_group) {
    if (io < 0 || io >= static_cast<int>(servers_.size())) {
      throw std::out_of_range("PFS: stripe group references missing I/O node");
    }
  }
  auto meta = std::make_unique<PfsFileMeta>(attrs);
  meta->id = next_id_++;
  meta->name = name;
  for (int slot = 0; slot < attrs.group_size(); ++slot) {
    const int io = attrs.stripe_group[slot];
    meta->stripe_inos.push_back(
        servers_[static_cast<std::size_t>(io)].ufs().create(name + ".s" + std::to_string(slot)));
  }
  PfsFileMeta& ref = *meta;
  by_id_[ref.id] = meta.get();
  files_[name] = std::move(meta);
  return ref;
}

PfsFileMeta* PfsFileSystem::lookup(const std::string& name) {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : it->second.get();
}

PfsFileMeta& PfsFileSystem::file(FileId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) throw std::out_of_range("PFS: bad file id");
  return *it->second;
}

}  // namespace ppfs::pfs
