// Figure 3: declustering of compute-node requests to the I/O nodes.
// For 64KB requests (= one stripe unit) each compute node's request lands
// on a single I/O node; for 128KB requests it spans two. This bench prints
// the request->I/O-node routing matrix straight from StripeLayout::map,
// plus the I/O-node load balance for a full M_RECORD round.
#include <iostream>

#include "bench_common.hpp"
#include "pfs/stripe.hpp"

int main() {
  using namespace ppfs;
  using namespace ppfs::bench;

  banner("Figure 3: declustering of compute-node requests to the I/O nodes",
         "Fig. 3 (request declustering diagram)",
         "64KB requests -> 1 I/O node each, perfectly balanced round; "
         "128KB requests -> 2 I/O nodes each, wrapping around the group");

  pfs::StripeAttrs attrs;
  attrs.stripe_unit = 64 * 1024;
  attrs.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
  pfs::StripeLayout layout(attrs);
  const int nodes = 8;

  for (sim::ByteCount req : {sim::ByteCount(64 * 1024), sim::ByteCount(128 * 1024)}) {
    std::cout << "\nRequest size " << fmt_bytes(req)
              << " (stripe unit 64KB, stripe group 8), one M_RECORD round:\n\n";
    TextTable table({"compute node", "file offset", "I/O nodes hit", "bytes per I/O node"});
    std::vector<sim::ByteCount> load(nodes, 0);
    for (int c = 0; c < nodes; ++c) {
      const sim::FileOffset off = static_cast<sim::FileOffset>(c) * req;
      pfs::StripeExtents reqs;
      layout.map(off, req, reqs);
      std::string hits, bytes;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (i) {
          hits += ',';
          bytes += ',';
        }
        hits += std::to_string(reqs[i].io_index);
        bytes += fmt_bytes(reqs[i].length);
        load[reqs[i].io_index] += reqs[i].length;
      }
      table.add_row({"cn" + std::to_string(c), fmt_bytes(off), hits, bytes});
    }
    std::cout << table.str();
    std::cout << "\nI/O-node load for the round: ";
    for (int io = 0; io < nodes; ++io) {
      std::cout << "io" << io << "=" << fmt_bytes(load[io]) << (io + 1 < nodes ? " " : "\n");
    }
  }
  std::cout << std::endl;
  return 0;
}
