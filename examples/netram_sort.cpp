// Out-of-core workload on network RAM: an external merge-sort-shaped
// program whose working set is 3x the machine's DRAM.  Classical virtual
// memory thrashes the local disk; the NOW pages to idle remote DRAM and
// "fulfills the original promise of virtual memory."
//
//   $ ./examples/netram_sort
#include <cstdio>
#include <functional>
#include <memory>

#include "core/cluster.hpp"
#include "netram/pager.hpp"

namespace {

using namespace now;

// Sort-like page reference pattern: sequential generation pass, then
// log(N) merge passes that stream two halves alternately.
class SortRun {
 public:
  SortRun(os::Node& node, os::AddressSpace& space, std::uint64_t pages,
          std::function<void(sim::Duration)> done)
      : node_(node), space_(space), pages_(pages), done_(std::move(done)) {}

  void start() {
    pid_ = node_.cpu().spawn("sort", os::SchedClass::kBatch, [this] {
      t0_ = node_.engine().now();
      step();
    });
  }

 private:
  // Each step touches one page after ~1.5 ms of comparison/copy work.
  void step() {
    if (pass_ == kPasses) {
      const sim::Duration d = node_.engine().now() - t0_;
      node_.cpu().exit(pid_);
      done_(d);
      return;
    }
    node_.cpu().compute(pid_, sim::from_ms(1.5), [this] {
      // Merge pattern: alternate between the two halves of the data.
      const std::uint64_t half = pages_ / 2;
      const std::uint64_t page =
          (i_ % 2 == 0) ? (i_ / 2) % half : half + (i_ / 2) % half;
      space_.access_from_process(node_.cpu(), pid_, page, /*write=*/true,
                                 [this] {
                                   if (++i_ == pages_) {
                                     i_ = 0;
                                     ++pass_;
                                   }
                                   step();
                                 });
    });
  }

  static constexpr int kPasses = 3;
  os::Node& node_;
  os::AddressSpace& space_;
  std::uint64_t pages_;
  std::function<void(sim::Duration)> done_;
  os::ProcessId pid_ = os::kNoProcess;
  sim::SimTime t0_ = 0;
  std::uint64_t i_ = 0;
  int pass_ = 0;
};

double run_sort(bool use_netram) {
  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.with_glunix = false;
  cfg.with_netram_registry = true;
  Cluster c(cfg);
  if (use_netram) {
    for (std::uint32_t i = 1; i < 8; ++i) {
      c.memory_registry().add_donor(c.node(i));
    }
  }

  const std::uint32_t page = 8192;
  const std::uint64_t data_bytes = 96ull << 20;  // 96 MB of records
  const auto frames = static_cast<std::uint32_t>((32ull << 20) / page);

  std::unique_ptr<os::Pager> pager;
  if (use_netram) {
    pager = std::make_unique<netram::NetworkRamPager>(
        c.node(0), page, c.memory_registry(), c.rpc());
  } else {
    pager = std::make_unique<netram::DiskPager>(c.node(0), page);
  }
  os::AddressSpace space(c.engine(), frames, page, *pager, c.node(0).id());

  sim::Duration elapsed = 0;
  SortRun sort(c.node(0), space, data_bytes / page,
               [&](sim::Duration d) { elapsed = d; });
  sort.start();
  c.run();
  return sim::to_sec(elapsed);
}

}  // namespace

int main() {
  std::printf("out-of-core sort: 96 MB of records on a 32 MB "
              "workstation, 3 passes\n\n");
  const double disk = run_sort(false);
  std::printf("  paging to the local disk:       %8.1f s  (the reason "
              "people 'arrange never to\n"
              "                                             run problems "
              "bigger than physical memory')\n",
              disk);
  const double netram = run_sort(true);
  std::printf("  paging to idle remote DRAM:     %8.1f s\n", netram);
  std::printf("\nnetwork RAM is %.1fx faster; the idle half of the "
              "building just became your\nmemory extension.\n",
              disk / netram);
  return 0;
}
