// PfsFileSystem: one mounted PFS — stripe-group metadata, the per-I/O-node
// servers, and the coordination services.
//
// "Any number of PFS file systems may be mounted in the system, each with
// different default data striping attributes and buffering strategies."
// Experiments that vary stripe unit / stripe group simply create files
// with different StripeAttrs on one mount.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "pfs/pointer_server.hpp"
#include "pfs/server.hpp"
#include "pfs/stripe.hpp"
#include "pfs/token.hpp"
#include "sim/shard.hpp"
#include "ufs/inode.hpp"

namespace ppfs::pfs {

struct PfsFileMeta {
  FileId id = 0;
  std::string name;
  StripeLayout layout;
  /// Stripe-file inode per group slot (a node appearing in k slots hosts
  /// k distinct stripe files).
  std::vector<ufs::InodeNum> stripe_inos;
  ByteCount size = 0;

  explicit PfsFileMeta(StripeAttrs attrs) : layout(std::move(attrs)) {}
};

class PfsFileSystem {
 public:
  PfsFileSystem(hw::Machine& machine, PfsParams params);
  PfsFileSystem(const PfsFileSystem&) = delete;
  PfsFileSystem& operator=(const PfsFileSystem&) = delete;

  /// Create a PFS file with the given striping (default attrs: 64 KB unit
  /// across every I/O node). Creates one stripe file per group slot.
  PfsFileMeta& create(const std::string& name, StripeAttrs attrs);
  PfsFileMeta& create(const std::string& name);

  /// nullptr when absent.
  PfsFileMeta* lookup(const std::string& name);
  PfsFileMeta& file(FileId id);

  /// Default striping for this mount: unit 64 KB, group = all I/O nodes.
  StripeAttrs default_attrs() const;

  PfsServer& server(int io_index) { return servers_.at(static_cast<std::size_t>(io_index)); }
  int server_count() const { return static_cast<int>(servers_.size()); }
  /// True while any I/O daemon is in a crash outage — the prefetch engine
  /// uses this to pause speculation until the system is whole again.
  bool any_server_down() const {
    for (const auto& s : servers_) {
      if (s.down()) return true;
    }
    return false;
  }
  PointerService& pointers() noexcept { return pointers_; }
  CollectiveService& collectives() noexcept { return collectives_; }
  /// TokenWrite byte-range token manager (only exercised when
  /// params().write_tokens is set; idle otherwise).
  TokenManager& tokens() noexcept { return tokens_; }
  const TokenManager& tokens() const noexcept { return tokens_; }

  hw::Machine& machine() noexcept { return machine_; }
  hw::NodeId metadata_node() const noexcept { return metadata_node_; }
  const PfsParams& params() const noexcept { return params_; }

  /// Mount-wide topology epoch: bumped by every server crash AND restore.
  /// Clients compare it against the epoch stamped on their cached stripe
  /// maps — a mismatch forces a metadata refresh before the next coalesced
  /// operation (see PfsClient::ensure_stripe_map).
  std::uint64_t topology_epoch() const noexcept { return topology_epoch_; }

 private:
  hw::Machine& machine_;
  PfsParams params_;
  hw::NodeId metadata_node_;
  // Chunk memory of every server's content store. Declared before servers_
  // so it outlives them; it dies with the mount.
  ufs::ContentArena content_arena_;
  // Per-I/O-node server state, io-index-ordered in one contiguous arena
  // (PfsServer is address-pinned: it hands out references to its Ufs and
  // params, which the arena's no-relocation contract preserves).
  sim::ShardArena<PfsServer> servers_;
  PointerService pointers_;
  CollectiveService collectives_;
  TokenManager tokens_;
  std::map<std::string, std::unique_ptr<PfsFileMeta>> files_;
  std::map<FileId, PfsFileMeta*> by_id_;
  FileId next_id_ = 1;
  std::uint64_t topology_epoch_ = 0;
};

}  // namespace ppfs::pfs
