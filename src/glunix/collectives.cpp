#include "glunix/collectives.hpp"

#include <cassert>

namespace now::glunix {

namespace {
using proto::BcastWire;
using proto::ReduceWire;
}  // namespace

Collectives::Collectives(proto::AmLayer& am, std::vector<os::Node*> nodes)
    : am_(am) {
  assert(!nodes.empty());
  for (std::size_t r = 0; r < nodes.size(); ++r) {
    const auto ep =
        am_.create_endpoint(*nodes[r], proto::AmLayer::Mode::kInterrupt);
    endpoints_.push_back(ep);
    am_.register_handler(ep, kBcast, [this](const proto::AmMessage& m) {
      const auto w = std::get<BcastWire>(m.payload);
      bcast_forward(w.op, w.rank);
    });
    am_.register_handler(ep, kReduce, [this](const proto::AmMessage& m) {
      const auto w = std::get<ReduceWire>(m.payload);
      Op& op = ops_.at(w.op);
      op.partial[w.parent] = op.combine(op.partial[w.parent], w.value);
      assert(op.missing[w.parent] > 0);
      if (--op.missing[w.parent] == 0) reduce_send_up(w.op, w.parent);
    });
  }
}

std::vector<std::size_t> Collectives::children_of(std::size_t rr) const {
  std::vector<std::size_t> out;
  const std::size_t n = endpoints_.size();
  for (std::size_t step = 1; rr + step < n; step <<= 1) {
    if (step > rr) out.push_back(rr + step);
  }
  return out;
}

std::size_t Collectives::parent_of(std::size_t rr) {
  assert(rr > 0);
  // Clear the highest set bit.
  std::size_t bit = 1;
  while ((bit << 1) <= rr) bit <<= 1;
  return rr - bit;
}

void Collectives::broadcast(std::size_t root, std::uint32_t bytes,
                            Done done) {
  assert(root < endpoints_.size());
  const std::uint64_t id = next_op_++;
  Op op;
  op.root = root;
  op.bytes = bytes;
  op.done = std::move(done);
  ops_.emplace(id, std::move(op));
  if (endpoints_.size() == 1) {
    Op& o = ops_.at(id);
    auto cb = std::move(o.done);
    ops_.erase(id);
    if (cb) cb();
    return;
  }
  bcast_forward(id, root);
}

void Collectives::bcast_forward(std::uint64_t op_id, std::size_t rank) {
  Op& op = ops_.at(op_id);
  const std::size_t n = endpoints_.size();
  if (rank != op.root) {
    ++op.received;
    if (op.received == n - 1) {
      auto cb = std::move(op.done);
      ops_.erase(op_id);
      if (cb) cb();
      return;
    }
  }
  const std::size_t rr = (rank + n - op.root) % n;
  for (const std::size_t child_rr : children_of(rr)) {
    const std::size_t child = (child_rr + op.root) % n;
    am_.send(endpoints_[rank], endpoints_[child], kBcast, op.bytes,
             BcastWire{op_id, child});
  }
}

void Collectives::reduce(const std::vector<double>& contributions,
                         Combine combine,
                         std::function<void(double)> done) {
  const std::size_t n = endpoints_.size();
  assert(contributions.size() == n);
  const std::uint64_t id = next_op_++;
  Op op;
  op.partial = contributions;
  op.combine = std::move(combine);
  op.reduce_done = std::move(done);
  op.missing.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    op.missing[r] = children_of(r).size();
  }
  ops_.emplace(id, std::move(op));
  // Leaves fire immediately (every communicator has at least one).
  for (std::size_t r = 0; r < n; ++r) {
    if (ops_.at(id).missing[r] == 0) {
      reduce_send_up(id, r);
      if (!ops_.contains(id)) return;  // n == 1: completed synchronously
    }
  }
}

void Collectives::reduce_send_up(std::uint64_t op_id, std::size_t rank) {
  Op& op = ops_.at(op_id);
  if (rank == 0) {
    auto cb = std::move(op.reduce_done);
    const double result = op.partial[0];
    ops_.erase(op_id);
    if (cb) cb(result);
    return;
  }
  const std::size_t parent = parent_of(rank);
  am_.send(endpoints_[rank], endpoints_[parent], kReduce, 32,
           ReduceWire{op_id, parent, op.partial[rank]});
}

void Collectives::barrier(Done done) {
  std::vector<double> zeros(endpoints_.size(), 0.0);
  reduce(zeros, [](double a, double b) { return a + b; },
         [this, done = std::move(done)](double) mutable {
           broadcast(0, 8, std::move(done));
         });
}

}  // namespace now::glunix
