// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run() before they die
// A differential byte oracle for the data path. Bounded random programs of
// writes and reads from two to four clients run against the full stack,
// and every read is compared with a flat byte model of the file:
//   - holes (ranges inside the file that no write reached) read as zeros;
//   - a read's count clamps at EOF;
//   - bytes of the caller's buffer past the count stay untouched;
//   - a write of zeros over stored data overwrites it.
// The settings cover stripe units that do and do not divide the UFS block
// (3000 B, 16 KiB, 64 KiB, 192 KiB), three stripe groups (one node, all
// eight, eight slots on two nodes), the four data-path stage sets, the
// fast path on and off, and prefetch on for a subset. Reads run in
// concurrent batches, so server batching sees requests from several
// clients at once; writes run one at a time, so the model's order is the
// file's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "prefetch/engine.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/when_all.hpp"

namespace ppfs::pfs {
namespace {

using sim::Task;

constexpr ByteCount kBlock = 64 * 1024;  // UFS block: the fast path's alignment
constexpr std::byte kSentinel{0x5a};
constexpr int kIoNodes = 8;
constexpr int kMaxClients = 4;

struct Layout {
  const char* name;
  std::vector<int> group;
};

const std::vector<Layout>& layouts() {
  static const std::vector<Layout> all{
      {"one-node", {3}},
      {"all-node", {0, 1, 2, 3, 4, 5, 6, 7}},
      {"8-slots-on-2-nodes", {0, 1, 0, 1, 0, 1, 0, 1}},
  };
  return all;
}

struct Config {
  ByteCount unit = kBlock;
  const Layout* layout = nullptr;
  bool coalesce = false;
  bool server_batch = false;
  bool fastpath = true;
  bool prefetch = false;
  int clients = 2;
  std::uint64_t seed = 1;

  std::string name() const {
    std::ostringstream os;
    os << "unit=" << unit << " layout=" << layout->name << " coalesce=" << coalesce
       << " server_batch=" << server_batch << " fastpath=" << fastpath
       << " prefetch=" << prefetch << " clients=" << clients << " seed=" << seed;
    return os.str();
  }
};

/// One read of a batch: which client, where, how much, and what came back.
struct ReadOp {
  int client = 0;
  FileOffset off = 0;
  std::vector<std::byte> buf;  // request length; sentinel-filled before the read
  ByteCount got = 0;
};

/// The machine, the mount, one fd per client on file "f", and the model.
class Oracle {
 public:
  explicit Oracle(const Config& cfg)
      : cfg_(cfg),
        machine_(sim_, hw::MachineConfig::paragon(kMaxClients, kIoNodes)),
        fs_(machine_, params(cfg)),
        rng_(cfg.seed) {
    StripeAttrs attrs;
    attrs.stripe_unit = cfg.unit;
    attrs.stripe_group = cfg.layout->group;
    fs_.create("f", attrs);
    for (int r = 0; r < cfg.clients; ++r) {
      clients_.push_back(std::make_unique<PfsClient>(fs_, r, r, cfg.clients));
      if (cfg.prefetch) {
        engines_.push_back(prefetch::attach_prefetcher(*clients_.back(), {}));
      }
    }
    run([](Oracle& o) -> Task<void> {
      for (auto& c : o.clients_) {
        const int fd = co_await c->open("f", IoMode::kAsync);
        c->set_fastpath(fd, o.cfg_.fastpath);
        o.fds_.push_back(fd);
      }
    }(*this));
  }

  ~Oracle() {
    for (std::size_t r = 0; r < fds_.size(); ++r) clients_[r]->close(fds_[r]);
  }

  /// The longest range a program touches: two and a half stripe rows, so
  /// extents wrap the group and come back to a slot.
  ByteCount reach() const {
    const ByteCount row = cfg_.unit * cfg_.layout->group.size();
    return std::max<ByteCount>(row * 5 / 2, 4 * kBlock);
  }

  /// A range inside [0, limit): a third block-aligned (so the fast path can
  /// take it), a third unit-aligned, a third arbitrary.
  std::pair<FileOffset, ByteCount> pick(ByteCount limit, ByteCount max_len) {
    const std::uint64_t kind = rng_.uniform_int(0, 2);
    const ByteCount grain = kind == 0 ? kBlock : kind == 1 ? cfg_.unit : 1;
    const ByteCount units = std::max<ByteCount>(max_len / grain, 1);
    const ByteCount len = rng_.uniform_int(1, units) * grain;
    const ByteCount room = limit > len ? (limit - len) / grain : 0;
    const FileOffset off = rng_.uniform_int(0, room) * grain;
    return {off, len};
  }

  /// Write `len` bytes at `off` from a random client: random bytes, or all
  /// zeros one time in four.
  void write(FileOffset off, ByteCount len) {
    std::vector<std::byte> data(len);
    if (rng_.uniform_int(0, 3) != 0) {
      const std::uint64_t salt = rng_.next();
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(((off + i) * 0x9e3779b97f4a7c15ull ^ salt) >> 56);
      }
    }
    const int c = static_cast<int>(rng_.uniform_int(0, clients_.size() - 1));
    run([](Oracle& o, int client, FileOffset at, std::span<const std::byte> in) -> Task<void> {
      PfsClient& cl = *o.clients_[static_cast<std::size_t>(client)];
      const int fd = o.fds_[static_cast<std::size_t>(client)];
      co_await cl.seek(fd, at);
      EXPECT_EQ(co_await cl.write(fd, in), in.size());
    }(*this, c, off, data));
    if (model_.size() < off + len) model_.resize(off + len);
    std::memcpy(model_.data() + off, data.data(), len);
  }

  /// Run every read of `batch` concurrently, one per client, then check
  /// each against the model.
  void read_batch(std::vector<ReadOp>& batch) {
    for (ReadOp& r : batch) std::fill(r.buf.begin(), r.buf.end(), kSentinel);
    run([](Oracle& o, std::vector<ReadOp>& ops) -> Task<void> {
      std::vector<Task<void>> parts;
      for (ReadOp& r : ops) {
        parts.push_back([](Oracle& self, ReadOp& op) -> Task<void> {
          PfsClient& cl = *self.clients_[static_cast<std::size_t>(op.client)];
          const int fd = self.fds_[static_cast<std::size_t>(op.client)];
          if (cl.tell(fd) != op.off) co_await cl.seek(fd, op.off);
          op.got = co_await cl.read(fd, op.buf);
        }(o, r));
      }
      co_await sim::when_all(o.sim_, std::move(parts));
    }(*this, batch));
    for (const ReadOp& r : batch) check(r);
  }

  void check(const ReadOp& r) {
    ++reads_checked_;
    const ByteCount size = model_.size();
    const ByteCount want = r.off >= size ? 0 : std::min<ByteCount>(r.buf.size(), size - r.off);
    ASSERT_EQ(r.got, want) << "count of a " << r.buf.size() << " B read at " << r.off
                           << " from client " << r.client << " (file size " << size << ")";
    const auto data = std::span<const std::byte>(r.buf).first(r.got);
    const auto model = std::span<const std::byte>(model_).subspan(r.got > 0 ? r.off : 0, r.got);
    const auto bad = std::mismatch(data.begin(), data.end(), model.begin());
    ASSERT_TRUE(bad.first == data.end())
        << "byte " << r.off + (bad.first - data.begin()) << " of a " << r.buf.size()
        << " B read at " << r.off << " from client " << r.client << " reads "
        << static_cast<int>(*bad.first) << ", the model holds " << static_cast<int>(*bad.second);
    const auto past = std::span<const std::byte>(r.buf).subspan(r.got);
    const auto touched =
        std::find_if(past.begin(), past.end(), [](std::byte b) { return b != kSentinel; });
    ASSERT_TRUE(touched == past.end())
        << "index " << r.got + (touched - past.begin()) << " past the count " << r.got
        << " of a read at " << r.off << " was written";
  }

  /// Interleaved writes and concurrent read batches.
  void mixed_program(int steps) {
    const ByteCount limit = reach();
    for (int s = 0; s < steps && !::testing::Test::HasFatalFailure(); ++s) {
      if (model_.empty() || rng_.uniform_int(0, 2) == 0) {
        const auto [off, len] = pick(limit, limit / 2);
        write(off, len);
        continue;
      }
      std::vector<ReadOp> batch;
      const int n = static_cast<int>(rng_.uniform_int(1, clients_.size()));
      for (int c = 0; c < n; ++c) {
        // Some reads start past EOF or run over it.
        const auto [off, len] = pick(model_.size() + limit / 4, limit);
        batch.push_back(ReadOp{c, off, std::vector<std::byte>(len), 0});
      }
      read_batch(batch);
    }
  }

  /// Writes first, then every client reads forward from its own start in
  /// equal steps, all clients at once: the prefetch engine posts the next
  /// step after each read and serves it on the next call. Prefetch has no
  /// coherence with later writes (the paper's prototype read static
  /// files), so nothing is written once reading starts.
  void sequential_program(int writes, int rounds) {
    const ByteCount limit = reach();
    for (int w = 0; w < writes; ++w) {
      const auto [off, len] = pick(limit, limit / 2);
      write(off, len);
    }
    std::vector<FileOffset> cursor;
    std::vector<ByteCount> step;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      const auto [off, len] = pick(model_.size(), limit / 2);
      cursor.push_back(off);
      step.push_back(len);
    }
    for (int k = 0; k < rounds && !::testing::Test::HasFatalFailure(); ++k) {
      std::vector<ReadOp> batch;
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        batch.push_back(ReadOp{static_cast<int>(c), cursor[c], std::vector<std::byte>(step[c]), 0});
        cursor[c] += step[c];
      }
      read_batch(batch);
    }
  }

  std::uint64_t reads_checked() const noexcept { return reads_checked_; }
  std::uint64_t prefetch_hits() const {
    std::uint64_t hits = 0;
    for (const auto& e : engines_) hits += e->stats().hits_ready + e->stats().hits_in_flight;
    return hits;
  }

 private:
  static PfsParams params(const Config& cfg) {
    PfsParams p;
    p.coalesce_rpcs = cfg.coalesce;
    p.server_batch = cfg.server_batch;
    return p;
  }

  void run(Task<void> t) {
    bool done = false;
    sim_.spawn([](Task<void> inner, bool& flag) -> Task<void> {
      co_await std::move(inner);
      flag = true;
    }(std::move(t), done));
    sim_.run();
    ASSERT_TRUE(done) << "the program stalled (deadlock in the model?)";
  }

  Config cfg_;
  sim::Simulation sim_;
  hw::Machine machine_;
  PfsFileSystem fs_;
  std::vector<std::unique_ptr<PfsClient>> clients_;
  std::vector<std::unique_ptr<prefetch::PrefetchEngine>> engines_;
  std::vector<int> fds_;
  sim::Rng rng_;
  std::vector<std::byte> model_;  // the file as the writes left it
  std::uint64_t reads_checked_ = 0;
};

/// Every layout, stage set and fast-path setting for one stripe unit: 24
/// programs, each with its own seed.
void run_unit(ByteCount unit) {
  std::uint64_t seed = unit;
  std::uint64_t reads = 0;
  for (const Layout& layout : layouts()) {
    for (int stages = 0; stages < 4; ++stages) {
      for (const bool fastpath : {true, false}) {
        Config cfg;
        cfg.unit = unit;
        cfg.layout = &layout;
        cfg.coalesce = (stages & 1) != 0;
        cfg.server_batch = (stages & 2) != 0;
        cfg.fastpath = fastpath;
        cfg.clients = 2 + static_cast<int>(seed % 3);
        cfg.seed = ++seed;
        SCOPED_TRACE(cfg.name());
        Oracle o(cfg);
        o.mixed_program(14);
        if (::testing::Test::HasFatalFailure()) return;
        reads += o.reads_checked();
      }
    }
  }
  EXPECT_GE(reads, 24u * 4);
}

TEST(ByteOracle, Unit3000BytesMatchesTheFlatModel) { run_unit(3000); }
TEST(ByteOracle, Unit16KiBMatchesTheFlatModel) { run_unit(16 * 1024); }
TEST(ByteOracle, Unit64KiBMatchesTheFlatModel) { run_unit(64 * 1024); }
TEST(ByteOracle, Unit192KiBMatchesTheFlatModel) { run_unit(192 * 1024); }

TEST(ByteOracle, PrefetchedSequentialReadsMatchTheFlatModel) {
  // Prefetch on: 16 KiB and 64 KiB units, every layout, legacy and all
  // stages, fast path on.
  std::uint64_t seed = 500;
  std::uint64_t hits = 0;
  for (const ByteCount unit : {ByteCount{16 * 1024}, ByteCount{64 * 1024}}) {
    for (const Layout& layout : layouts()) {
      for (const bool stages : {false, true}) {
        Config cfg;
        cfg.unit = unit;
        cfg.layout = &layout;
        cfg.coalesce = stages;
        cfg.server_batch = stages;
        cfg.prefetch = true;
        cfg.clients = 2 + static_cast<int>(seed % 3);
        cfg.seed = ++seed;
        SCOPED_TRACE(cfg.name());
        Oracle o(cfg);
        o.sequential_program(4, 6);
        if (::testing::Test::HasFatalFailure()) return;
        hits += o.prefetch_hits();
      }
    }
  }
  // The prefetched path must actually serve reads, or this proves nothing.
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace ppfs::pfs
