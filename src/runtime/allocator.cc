#include "runtime/allocator.h"

#include <algorithm>

#include "common/check.h"

namespace ecoscale {

DistributedBuffer::DistributedBuffer(std::vector<BufferPartition> parts)
    : parts_(std::move(parts)) {
  ECO_CHECK(!parts_.empty());
  Bytes expect = 0;
  for (const auto& p : parts_) {
    ECO_CHECK_MSG(p.offset == expect, "partitions must tile the buffer");
    expect += p.size;
  }
  total_ = expect;
}

const BufferPartition& DistributedBuffer::partition_of(Bytes offset) const {
  ECO_CHECK_MSG(offset < total_, "offset past end of buffer");
  // Partitions are sorted by offset; binary search the covering one.
  auto it = std::upper_bound(
      parts_.begin(), parts_.end(), offset,
      [](Bytes off, const BufferPartition& p) { return off < p.offset; });
  ECO_CHECK(it != parts_.begin());
  return *(it - 1);
}

WorkerCoord DistributedBuffer::home_of(Bytes offset) const {
  return partition_of(offset).home;
}

DistributedBuffer TopologyAllocator::allocate(
    Bytes total, Distribution dist, const std::vector<WorkerCoord>& workers) {
  ECO_CHECK(total > 0);
  ECO_CHECK(!workers.empty());
  std::vector<BufferPartition> parts;
  switch (dist) {
    case Distribution::kLocal: {
      BufferPartition p;
      p.home = workers.front();
      p.base = pgas_.alloc(p.home.node, p.home.worker, total);
      p.offset = 0;
      p.size = total;
      parts.push_back(p);
      break;
    }
    case Distribution::kBlock: {
      // Page-aligned contiguous chunks, remainder to the last worker.
      const Bytes raw = (total + workers.size() - 1) / workers.size();
      const Bytes chunk = std::max<Bytes>(
          kPageSize, (raw + kPageSize - 1) & ~(kPageSize - 1));
      Bytes offset = 0;
      for (std::size_t i = 0; i < workers.size() && offset < total; ++i) {
        BufferPartition p;
        p.home = workers[i];
        p.offset = offset;
        p.size = std::min(chunk, total - offset);
        p.base = pgas_.alloc(p.home.node, p.home.worker, p.size);
        parts.push_back(p);
        offset += p.size;
      }
      break;
    }
    case Distribution::kCyclic: {
      // One page per worker, round-robin.
      Bytes offset = 0;
      std::size_t i = 0;
      while (offset < total) {
        BufferPartition p;
        p.home = workers[i % workers.size()];
        p.offset = offset;
        p.size = std::min<Bytes>(kPageSize, total - offset);
        p.base = pgas_.alloc(p.home.node, p.home.worker, p.size);
        parts.push_back(p);
        offset += p.size;
        ++i;
      }
      break;
    }
  }
  return DistributedBuffer(std::move(parts));
}

}  // namespace ecoscale
