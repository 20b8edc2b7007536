#include "models/access.hpp"

#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "net/shared_bus.hpp"
#include "sim/engine.hpp"

namespace now::models {

namespace {
AccessComponents make_row(bool atm, bool from_disk) {
  AccessComponents c;
  c.network = atm ? "155-Mbps ATM" : "Ethernet";
  c.from_disk = from_disk;
  // Wire time for 8 KB: the paper rounds to 6,250 us (Ethernet) and
  // 400 us (ATM).
  c.transfer_us = atm ? 400 : 6'250;
  c.disk_us = from_disk ? 14'800 : 0;
  return c;
}
}  // namespace

std::vector<AccessComponents> table2_rows() {
  return {make_row(false, false), make_row(false, true),
          make_row(true, false), make_row(true, true)};
}

double simulated_remote_memory_us(bool atm) {
  sim::Engine eng;
  sim::SimTime delivered = -1;
  net::Packet pkt;
  pkt.src = 0;
  pkt.dst = 1;
  pkt.size_bytes = 8192;
  if (atm) {
    net::HierarchicalNetwork net(eng, net::atm_155mbps());
    net.attach(0, [](net::Packet&&) {});
    net.attach(1, [&](net::Packet&&) { delivered = eng.now(); });
    net.send(std::move(pkt));
    eng.run();
  } else {
    net::SharedBusNetwork net(eng, net::ethernet_10mbps());
    net.attach(0, [](net::Packet&&) {});
    net.attach(1, [&](net::Packet&&) { delivered = eng.now(); });
    net.send(std::move(pkt));
    eng.run();
  }
  // Wire time plus the driver overhead and copy of Table 2's model.
  return sim::to_us(delivered) + 250.0 + 400.0;
}

}  // namespace now::models
